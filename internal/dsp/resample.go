package dsp

// DecimateFloat keeps every factor-th sample of x starting at phase,
// returning a new slice. factor < 1 is treated as 1; phase is clamped into
// [0, factor).
func DecimateFloat(x []float64, factor, phase int) []float64 {
	if factor < 1 {
		factor = 1
	}
	if phase < 0 {
		phase = 0
	}
	if phase >= factor {
		phase %= factor
	}
	out := make([]float64, 0, (len(x)-phase+factor-1)/factor)
	for i := phase; i < len(x); i += factor {
		out = append(out, x[i])
	}
	return out
}

// ResampleLinear resamples x from rateIn to rateOut using linear
// interpolation. The output covers the same time span as the input.
// Identical rates return a copy.
func ResampleLinear(x []float64, rateIn, rateOut float64) []float64 {
	return ResampleLinearAt(len(x), rateIn, rateOut, func(j int) float64 { return x[j] })
}

// ResampleLinearAt is ResampleLinear over an n-sample input read through
// at(j), for inputs computed on demand: it calls at only for the samples
// the interpolation reads — at most two per output, with non-decreasing
// j — in the order ResampleLinear reads them, and returns a fresh slice.
func ResampleLinearAt(n int, rateIn, rateOut float64, at func(j int) float64) []float64 {
	if n == 0 || rateIn <= 0 || rateOut <= 0 {
		return nil
	}
	if rateIn == rateOut {
		out := make([]float64, n)
		for i := range out {
			out[i] = at(i)
		}
		return out
	}
	m := int(float64(n) * rateOut / rateIn)
	if m < 1 {
		m = 1
	}
	out := make([]float64, m)
	step := rateIn / rateOut
	for i := range out {
		pos := float64(i) * step
		j := int(pos)
		if j >= n-1 {
			out[i] = at(n - 1)
			continue
		}
		frac := pos - float64(j)
		out[i] = at(j)*(1-frac) + at(j+1)*frac
	}
	return out
}

// ResampleLinearComplex resamples a complex signal with linear
// interpolation, mirroring ResampleLinear.
func ResampleLinearComplex(x []complex128, rateIn, rateOut float64) []complex128 {
	if len(x) == 0 || rateIn <= 0 || rateOut <= 0 {
		return nil
	}
	if rateIn == rateOut {
		return Clone(x)
	}
	n := int(float64(len(x)) * rateOut / rateIn)
	if n < 1 {
		n = 1
	}
	out := make([]complex128, n)
	step := rateIn / rateOut
	for i := range out {
		pos := float64(i) * step
		j := int(pos)
		if j >= len(x)-1 {
			out[i] = x[len(x)-1]
			continue
		}
		frac := complex(pos-float64(j), 0)
		out[i] = x[j]*(1-frac) + x[j+1]*frac
	}
	return out
}
