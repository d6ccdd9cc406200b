package dsp

import "math"

// FIR is a finite impulse response filter described by its tap weights.
type FIR struct {
	Taps []float64
}

// NewLowpass designs a windowed-sinc (Hamming) lowpass FIR with the given
// normalized cutoff frequency (cutoff/sampleRate, in (0, 0.5)) and tap
// count. An even tap count is rounded up to the next odd count so the
// filter has a symmetric center tap.
func NewLowpass(normCutoff float64, taps int) *FIR {
	if taps < 3 {
		taps = 3
	}
	if taps%2 == 0 {
		taps++
	}
	if normCutoff <= 0 {
		normCutoff = 1e-6
	}
	if normCutoff >= 0.5 {
		normCutoff = 0.499999
	}
	h := make([]float64, taps)
	mid := (taps - 1) / 2
	var sum float64
	for i := range h {
		n := float64(i - mid)
		var v float64
		if n == 0 {
			v = 2 * normCutoff
		} else {
			v = math.Sin(2*math.Pi*normCutoff*n) / (math.Pi * n)
		}
		// Hamming window.
		v *= 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(taps-1))
		h[i] = v
		sum += v
	}
	// Normalize to unity DC gain.
	for i := range h {
		h[i] /= sum
	}
	return &FIR{Taps: h}
}

// GaussianTaps returns the taps of a Gaussian pulse-shaping filter with
// bandwidth-time product bt, spanning span symbol periods at sps samples
// per symbol, normalized to unit area. This is the shaping filter of GFSK
// as used by Bluetooth (BT = 0.5).
func GaussianTaps(bt float64, sps, span int) []float64 {
	if sps < 1 {
		sps = 1
	}
	if span < 1 {
		span = 1
	}
	n := sps*span | 1 // make odd
	taps := make([]float64, n)
	mid := float64(n-1) / 2
	// Standard GFSK Gaussian: h(t) = sqrt(2π/ln2) * B * exp(-2π²B²t²/ln2)
	// with t in symbol periods and B = bt.
	alpha := 2 * math.Pi * math.Pi * bt * bt / math.Ln2
	var sum float64
	for i := range taps {
		t := (float64(i) - mid) / float64(sps)
		taps[i] = math.Exp(-alpha * t * t)
		sum += taps[i]
	}
	for i := range taps {
		taps[i] /= sum
	}
	return taps
}

// HalfSineTaps returns one half-sine pulse of sps samples, the chip pulse
// shape of O-QPSK as used by IEEE 802.15.4 (ZigBee).
func HalfSineTaps(sps int) []float64 {
	if sps < 1 {
		sps = 1
	}
	taps := make([]float64, sps)
	for i := range taps {
		taps[i] = math.Sin(math.Pi * float64(i) / float64(sps))
	}
	return taps
}

// ApplyFloat convolves the real signal x with the filter, returning a new
// slice of the same length (the group delay is removed so the output is
// aligned with the input).
func (f *FIR) ApplyFloat(x []float64) []float64 {
	return f.ApplyFloatInto(make([]float64, len(x)), x)
}

// ApplyFloatInto convolves x into dst (which must not alias x and must
// have len(x) capacity) and returns dst[:len(x)]. The interior of the
// signal — where the full tap span fits — runs without per-tap bounds
// checks; the edges keep the zero-padded behaviour of ApplyFloat. The
// accumulation order is identical to ApplyFloat, so outputs match bit for
// bit.
func (f *FIR) ApplyFloatInto(dst, x []float64) []float64 {
	taps := f.Taps
	delay := (len(taps) - 1) / 2
	dst = dst[:len(x)]
	lo, hi := f.interior(len(x))
	for i := 0; i < lo; i++ {
		dst[i] = f.edgeTapFloat(x, i, delay)
	}
	for i := lo; i < hi; i++ {
		var acc float64
		base := i + delay
		for k, t := range taps {
			acc += t * x[base-k]
		}
		dst[i] = acc
	}
	for i := hi; i < len(x); i++ {
		dst[i] = f.edgeTapFloat(x, i, delay)
	}
	return dst
}

// ApplyFloatAt returns output sample i of ApplyFloat(x) alone, computed
// by the same sum (the interior or the zero-padded edge form), so it is
// bit-identical to ApplyFloat(x)[i]. Callers that keep only some outputs
// — a resampler reading two inputs per output — skip the rest.
func (f *FIR) ApplyFloatAt(x []float64, i int) float64 {
	delay := (len(f.Taps) - 1) / 2
	if lo, hi := f.interior(len(x)); i < lo || i >= hi {
		return f.edgeTapFloat(x, i, delay)
	}
	var acc float64
	base := i + delay
	for k, t := range f.Taps {
		acc += t * x[base-k]
	}
	return acc
}

// interior returns the output range [lo, hi) of an n-sample signal
// where every tap index i + delay − k stays in bounds, so the sum needs
// no clipping.
func (f *FIR) interior(n int) (lo, hi int) {
	delay := (len(f.Taps) - 1) / 2
	lo = len(f.Taps) - 1 - delay
	hi = n - delay
	if lo < 0 {
		lo = 0
	}
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

func (f *FIR) edgeTapFloat(x []float64, i, delay int) float64 {
	var acc float64
	for k, t := range f.Taps {
		j := i + delay - k
		if j >= 0 && j < len(x) {
			acc += t * x[j]
		}
	}
	return acc
}

// ApplyInto convolves the complex signal x into dst (which must not
// alias x and must have len(x) capacity) and returns the aligned
// dst[:len(x)]. See ApplyFloatInto for the interior/edge split.
func (f *FIR) ApplyInto(dst, x []complex128) []complex128 {
	taps := f.Taps
	delay := (len(taps) - 1) / 2
	dst = dst[:len(x)]
	lo, hi := f.interior(len(x))
	for i := 0; i < lo; i++ {
		dst[i] = f.edgeTap(x, i, delay)
	}
	for i := lo; i < hi; i++ {
		var accRe, accIm float64
		base := i + delay
		for k, t := range taps {
			v := x[base-k]
			accRe += t * real(v)
			accIm += t * imag(v)
		}
		dst[i] = complex(accRe, accIm)
	}
	for i := hi; i < len(x); i++ {
		dst[i] = f.edgeTap(x, i, delay)
	}
	return dst
}

func (f *FIR) edgeTap(x []complex128, i, delay int) complex128 {
	var accRe, accIm float64
	for k, t := range f.Taps {
		j := i + delay - k
		if j >= 0 && j < len(x) {
			accRe += t * real(x[j])
			accIm += t * imag(x[j])
		}
	}
	return complex(accRe, accIm)
}

// UpsampleHoldFloatInto writes the zero-order hold of x into dst (which
// must have len(x)*sps capacity), each sample repeated sps times (once
// when sps < 1), and returns the filled slice.
func UpsampleHoldFloatInto(dst, x []float64, sps int) []float64 {
	if sps < 1 {
		sps = 1
	}
	dst = dst[:len(x)*sps]
	for i, s := range x {
		run := dst[i*sps : (i+1)*sps]
		for k := range run {
			run[k] = s
		}
	}
	return dst
}
