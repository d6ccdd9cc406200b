// Package tag implements the multiscatter tag's baseband: high-bandwidth
// signal acquisition through the analog front end, template construction
// for the four excitation protocols, and the low-power identification
// pipeline — preprocessing (DC removal + normalization), full-precision or
// ±1-quantized correlation, downsampling, and blind or ordered template
// matching (§2.2–2.3 of the paper).
package tag

import (
	"math"

	"multiscatter/internal/analog"
	"multiscatter/internal/dsp"
)

// FrontEnd converts an incoming complex-baseband excitation into the ADC
// sample stream the FPGA sees. It chains three effects:
//
//  1. FM→AM conversion with slope Slope: any real front end (antenna
//     match, cable, multipath) has a frequency-tilted amplitude response,
//     which turns the frequency/phase structure of GFSK, O-QPSK and DSSS
//     signals into envelope ripple — the structure Figure 5a's
//     distinguishable envelopes come from.
//  2. The rectifier's diode/RC envelope dynamics.
//  3. ADC resampling and quantization.
type FrontEnd struct {
	// Slope is the fractional amplitude tilt per unit of normalized
	// frequency (f/SlopeRefHz). Zero disables FM→AM conversion.
	Slope float64
	// SlopeRefHz normalizes the tilt (default 2 MHz: BLE's ±250 kHz
	// deviation then yields ±Slope/8 envelope ripple).
	SlopeRefHz float64
	// Rectifier models the envelope detector (default: the multiscatter
	// clamped rectifier).
	Rectifier *analog.Rectifier
	// ADC samples the rectifier output (default: 9-bit at 20 Msps).
	ADC *analog.ADC
	// InputScale scales the incoming IQ before detection, standing in
	// for the received signal amplitude at the tag antenna. The default
	// 0.1 (≈ −7 dBm across 50 Ω) keeps the rectifier output inside the
	// ADC's tuned 0.5 V full scale — the paper's V_ref matching note.
	InputScale float64
	// NoAntiAlias disables the anti-aliasing lowpass in front of the
	// ADC. The default (filter on) band-limits the rectifier output to
	// 0.4× the ADC rate so sub-sample timing jitter does not decorrelate
	// aliased chip-rate envelope content — the standard track-and-hold +
	// RC behaviour of a real converter front end.
	NoAntiAlias bool

	// Anti-alias filter cache: the taps depend only on the input and ADC
	// rates, so repeated Acquire calls at the same rates reuse the design.
	aaFilter  *dsp.FIR
	aaInRate  float64
	aaADCRate float64
	// rect is Acquire's input-rate scratch: the envelope, rectified in
	// place. A FrontEnd therefore serves one Acquire at a time, as the
	// filter cache above already requires.
	rect []float64
}

// NewFrontEnd returns the default acquisition chain at the given ADC rate.
func NewFrontEnd(adcRate float64) *FrontEnd {
	return &FrontEnd{
		Slope:      0.7,
		SlopeRefHz: 2e6,
		Rectifier:  analog.NewMultiscatterRectifier(),
		ADC:        analog.NewADC(adcRate),
		InputScale: 0.1,
	}
}

// Acquire runs iq (at the given sample rate) through the front end and
// returns the ADC sample stream at the ADC rate, in a fresh slice the
// caller may keep.
//
// The anti-alias filter is evaluated only at the input samples the
// ADC's linear resampler reads, each by the sum FIR.ApplyFloat would
// compute there, so the stream is bitwise the one the unfused chain
// (envelope → Detect → ApplyFloat → ADC.Sample) produces.
func (f *FrontEnd) Acquire(iq []complex128, rate float64) []float64 {
	if len(iq) == 0 || rate <= 0 {
		return nil
	}
	f.rect = dsp.GrowFloat(f.rect, len(iq))
	rect := f.Rectifier.DetectInto(f.rect, f.envelopeInto(f.rect, iq, rate), rate)
	if !f.NoAntiAlias && f.ADC.Rate < rate {
		if f.aaFilter == nil || f.aaInRate != rate || f.aaADCRate != f.ADC.Rate {
			cutoff := 0.4 * f.ADC.Rate / rate
			taps := int(2*rate/f.ADC.Rate) | 1
			if taps < 9 {
				taps = 9
			}
			if taps > 63 {
				taps = 63
			}
			f.aaFilter = dsp.NewLowpass(cutoff, taps)
			f.aaInRate = rate
			f.aaADCRate = f.ADC.Rate
		}
		// Adjacent ADC samples can read the same input sample (the right
		// end of one interpolation is the left end of the next when the
		// rates are close); the resampler's indices never decrease, so
		// remembering the last one computes each filtered sample once.
		fir := f.aaFilter
		lastJ, lastV := -1, 0.0
		return f.ADC.SampleAt(len(rect), rate, func(j int) float64 {
			if j != lastJ {
				lastJ, lastV = j, fir.ApplyFloatAt(rect, j)
			}
			return lastV
		})
	}
	return f.ADC.SampleAt(len(rect), rate, func(j int) float64 { return rect[j] })
}

// envelopeInto applies the FM→AM tilt and writes the instantaneous
// envelope of iq into dst (len(iq) capacity), returning dst[:len(iq)].
func (f *FrontEnd) envelopeInto(dst []float64, iq []complex128, rate float64) []float64 {
	scale := f.InputScale
	if scale <= 0 {
		scale = 0.1
	}
	if f.Slope == 0 {
		env := dsp.EnvelopeInto(dst, iq)
		for i := range env {
			env[i] *= scale
		}
		return env
	}
	ref := f.SlopeRefHz
	if ref <= 0 {
		ref = 2e6
	}
	// y = x − j·k·(dx/dt)/(2π·fRef): for x = A·e^{jφ} with instantaneous
	// frequency fi this gives |y| = A·|1 + k·fi/fRef| to first order —
	// a frequency-proportional amplitude tilt.
	k := f.Slope / (2 * math.Pi * ref)
	env := dst[:len(iq)]
	for i := range iq {
		var d complex128
		switch {
		case i == 0:
			d = (iq[1] - iq[0]) * complex(rate, 0)
		case i == len(iq)-1:
			d = (iq[i] - iq[i-1]) * complex(rate, 0)
		default:
			d = (iq[i+1] - iq[i-1]) * complex(rate/2, 0)
		}
		y := iq[i] - complex(0, k)*d
		re, im := real(y), imag(y)
		env[i] = scale * math.Sqrt(re*re+im*im)
	}
	return env
}
