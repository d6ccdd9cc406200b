package analog

import (
	"math/rand"

	"multiscatter/internal/dsp"
)

// ADC models the tag's analog-to-digital converter (an AD9235 stand-in):
// it resamples the rectifier output to the configured rate and quantizes
// against the full-scale reference voltage. The FPGA duty-cycles the
// converter through the EN pin; Enabled windows outside [On, Off) sample
// as zero.
type ADC struct {
	// Rate is the sampling rate in samples per second (e.g. 20e6, 10e6,
	// 2.5e6, 1e6 — the rates swept in Figures 5, 7 and 8).
	Rate float64
	// Bits is the resolution (the AD9235 is 12-bit; the tag uses 9 bits
	// of it per Table 2's resource accounting).
	Bits int
	// VRef is the full-scale reference voltage. The paper tunes VRef to
	// match the input's full-scale range so more output codes are used.
	VRef float64
	// NoiseLSB is the input-referred converter noise in LSBs (aperture
	// jitter, supply noise, the "analog random noise" of §2.3.2 note 3).
	// It is only applied when Rand is non-nil.
	NoiseLSB float64
	// Rand supplies converter noise; nil samples noiselessly (the mode
	// used to build templates, which are averaged captures).
	Rand *rand.Rand
}

// NewADC returns an ADC with the paper's operating point: 9-bit samples,
// a 0.5 V reference matched to the rectifier output swing, and 1.5 LSB of
// input-referred noise (inactive until Rand is set).
func NewADC(rate float64) *ADC {
	return &ADC{Rate: rate, Bits: 9, VRef: 0.5, NoiseLSB: 1.5}
}

// Sample resamples the rectifier output v (at inRate) to the ADC rate and
// quantizes each sample to the configured resolution, returning the
// reconstructed voltages (quantized, in volts).
func (a *ADC) Sample(v []float64, inRate float64) []float64 {
	return a.SampleAt(len(v), inRate, func(j int) float64 { return v[j] })
}

// SampleAt is Sample over an n-sample input at inRate read through
// at(j): the resampler calls at only for the input samples it
// interpolates (dsp.ResampleLinearAt), so a caller can compute just
// those. The noise draws and quantization are Sample's.
func (a *ADC) SampleAt(n int, inRate float64, at func(j int) float64) []float64 {
	if a.Rate <= 0 || inRate <= 0 || n == 0 {
		return nil
	}
	res := dsp.ResampleLinearAt(n, inRate, a.Rate, at)
	noise := a.noiseSigmaVolts()
	for i, x := range res {
		if noise > 0 {
			x += a.Rand.NormFloat64() * noise
		}
		res[i] = a.Quantize(x)
	}
	return res
}

// noiseSigmaVolts converts NoiseLSB into volts; zero when Rand is nil.
func (a *ADC) noiseSigmaVolts() float64 {
	if a.Rand == nil || a.NoiseLSB <= 0 {
		return 0
	}
	bits := a.Bits
	if bits <= 0 {
		bits = 9
	}
	vref := a.VRef
	if vref <= 0 {
		vref = 0.5
	}
	return a.NoiseLSB * vref / float64(int(1)<<uint(bits)-1)
}

// Code converts a voltage to a converter code in [0, 2^Bits-1].
func (a *ADC) Code(v float64) int {
	bits := a.Bits
	if bits <= 0 {
		bits = 9
	}
	levels := 1<<uint(bits) - 1
	vref := a.VRef
	if vref <= 0 {
		vref = 0.5
	}
	c := int(v / vref * float64(levels))
	if c < 0 {
		return 0
	}
	if c > levels {
		return levels
	}
	return c
}

// Quantize converts a voltage to its quantized reconstruction.
func (a *ADC) Quantize(v float64) float64 {
	bits := a.Bits
	if bits <= 0 {
		bits = 9
	}
	levels := 1<<uint(bits) - 1
	vref := a.VRef
	if vref <= 0 {
		vref = 0.5
	}
	return float64(a.Code(v)) * vref / float64(levels)
}
