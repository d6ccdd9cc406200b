package dsp

import "math"

// NormCorrFloat returns the normalized correlation coefficient between a
// and b over the overlap min(len(a), len(b)). The result is in [-1, 1];
// two zero-energy vectors correlate as 0.
func NormCorrFloat(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	var dot, ea, eb float64
	for i := 0; i < n; i++ {
		dot += a[i] * b[i]
		ea += a[i] * a[i]
		eb += b[i] * b[i]
	}
	if ea == 0 || eb == 0 {
		return 0
	}
	return dot / math.Sqrt(ea*eb)
}

// SignCorr returns the matched-sign fraction correlation of two ±1
// quantized vectors: (agreements - disagreements) / n, in [-1, 1]. This is
// the multiplier-free correlation the tag FPGA computes after 1-bit
// quantization: a product of signs is +1 on agreement and -1 otherwise, so
// the whole correlation reduces to adders.
func SignCorr(a, b []int8) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	var acc int
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			acc++
		} else {
			acc--
		}
	}
	return float64(acc) / float64(n)
}

// SlidingNormCorrInto computes the normalized correlation of template
// against every alignment of x into dst (which must have
// len(x)-len(template)+1 capacity) and returns the filled slice, or nil if
// the template does not fit. A window or template of zero energy scores 0.
// Each offset sums its window in sample order, O(n·m), fine for the
// window sizes used by the tag (≤ 800 samples); an incremental energy
// update would reorder the float summation and perturb gated outputs.
func SlidingNormCorrInto(dst, x, template []float64) []float64 {
	m := len(template)
	if m == 0 || len(x) < m {
		return nil
	}
	var et float64
	for _, v := range template {
		et += v * v
	}
	dst = dst[:len(x)-m+1]
	if et == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	for off := range dst {
		win := x[off : off+m : off+m]
		var dot, ex float64
		for i, v := range win {
			dot += v * template[i]
			ex += v * v
		}
		if ex == 0 {
			dst[off] = 0
			continue
		}
		dst[off] = dot / math.Sqrt(ex*et)
	}
	return dst
}

// MaxFloat returns the maximum value of x and its index, or (0, -1) for an
// empty slice.
func MaxFloat(x []float64) (float64, int) {
	if len(x) == 0 {
		return 0, -1
	}
	best, idx := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, idx = v, i+1
		}
	}
	return best, idx
}
