package channel

import (
	"math"
	"math/rand"
)

// Multipath is a tapped-delay-line channel: the received signal is the
// sum of delayed, complex-weighted copies of the transmitted one. Indoor
// 2.4 GHz channels have RMS delay spreads of tens of nanoseconds — a few
// samples at the simulator's 8–22 Msps baseband rates.
type Multipath struct {
	// Taps holds one complex gain per sample of delay (Taps[0] is the
	// direct path).
	Taps []complex128
}

// NewIndoorMultipath draws a random indoor channel with an exponential
// power-delay profile of the given RMS delay spread (seconds) at the
// given sample rate. The direct path keeps unit-mean power; later taps
// decay by e^(−delay/spread) with uniform phase. The result is
// normalized to unit total power so it changes frequency selectivity,
// not the link budget.
func NewIndoorMultipath(rng *rand.Rand, spreadSec, rate float64) *Multipath {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	if spreadSec <= 0 || rate <= 0 {
		return &Multipath{Taps: []complex128{1}}
	}
	nTaps := int(3*spreadSec*rate) + 1
	if nTaps < 2 {
		nTaps = 2
	}
	if nTaps > 32 {
		nTaps = 32
	}
	taps := make([]complex128, nTaps)
	var total float64
	for i := range taps {
		p := math.Exp(-float64(i) / (spreadSec * rate))
		// Rayleigh magnitude around the profile, uniform phase; the
		// direct path keeps a strong deterministic component (Rician).
		mag := math.Sqrt(p/2) * math.Abs(rng.NormFloat64())
		if i == 0 {
			mag = math.Sqrt(p)
		}
		ph := rng.Float64() * 2 * math.Pi
		taps[i] = complex(mag*math.Cos(ph), mag*math.Sin(ph))
		total += mag * mag
	}
	if total > 0 {
		k := complex(1/math.Sqrt(total), 0)
		for i := range taps {
			taps[i] *= k
		}
	}
	return &Multipath{Taps: taps}
}

// Apply convolves iq with the channel taps, returning a new slice of the
// same length (trailing echo truncated).
func (m *Multipath) Apply(iq []complex128) []complex128 {
	return m.ApplyInto(make([]complex128, len(iq)), iq)
}

// ApplyInto is the zero-alloc form of Apply: it convolves iq with the
// channel taps into dst (which must have capacity for len(iq) samples and
// must not alias iq) and returns the filled prefix.
func (m *Multipath) ApplyInto(dst, iq []complex128) []complex128 {
	out := dst[:len(iq)]
	if len(m.Taps) == 0 {
		copy(out, iq)
		return out
	}
	for i := range out {
		out[i] = 0
	}
	for d, tap := range m.Taps {
		if tap == 0 {
			continue
		}
		for i := d; i < len(iq); i++ {
			out[i] += tap * iq[i-d]
		}
	}
	return out
}
