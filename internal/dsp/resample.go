package dsp

// ResampleLinearAt resamples an n-sample input from rateIn to rateOut
// using linear interpolation, returning a fresh slice that covers the
// same time span; identical rates copy. The input is read through at(j),
// for inputs computed on demand: it calls at only for the samples the
// interpolation reads — at most two per output, with non-decreasing j.
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
