// Package dsp provides the digital signal processing substrate used by the
// multiscatter simulator: complex-baseband vector operations, FFTs, FIR
// filtering, pulse shaping, correlation, resampling, and the analytic
// BER/Q-function math used for link-budget experiments.
//
// All signals are represented as []complex128 sampled at an explicit rate
// carried alongside the samples by the caller (see package radio). The
// functions here are allocation-conscious: where practical they accept a
// destination slice and return it, following the append style of the
// standard library.
package dsp

import "math"

// Scale multiplies every sample of x by k in place and returns x.
func Scale(x []complex128, k complex128) []complex128 {
	for i := range x {
		x[i] *= k
	}
	return x
}

// Energy returns the total energy sum |x[i]|^2 of the signal.
func Energy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		re, im := real(v), imag(v)
		e += re*re + im*im
	}
	return e
}

// Power returns the mean sample power of x, or 0 for an empty signal.
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	return Energy(x) / float64(len(x))
}

func cmplxAbs(v complex128) float64 {
	return math.Hypot(real(v), imag(v))
}

// Envelope writes |x[i]| for each sample into a new float64 slice.
func Envelope(x []complex128) []float64 {
	return EnvelopeInto(make([]float64, len(x)), x)
}

// EnvelopeInto writes |x[i]| into dst (which must have len(x) samples)
// and returns dst. It is the zero-alloc form of Envelope for hot paths
// that own a scratch buffer.
func EnvelopeInto(dst []float64, x []complex128) []float64 {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = cmplxAbs(v)
	}
	return dst
}

// FromDB10 converts decibels to a power ratio.
func FromDB10(db float64) float64 { return math.Pow(10, db/10) }

// DBmToWatts converts a power level in dBm to watts.
func DBmToWatts(dbm float64) float64 { return math.Pow(10, (dbm-30)/10) }

// Rotate applies a continuous phase ramp exp(j*2π*freq*i/rate + j*phase0)
// to x in place and returns x. It is the complex mixer used for frequency
// shifting a baseband signal (e.g. the tag's frequency-shift operation that
// moves backscatter into an adjacent channel).
func Rotate(x []complex128, freq, rate, phase0 float64) []complex128 {
	if len(x) == 0 {
		return x
	}
	if freq == 0 {
		return rotateConstant(x, phase0)
	}
	step := 2 * math.Pi * freq / rate
	// Use an incremental rotator; renormalize periodically to bound drift.
	rot := complex(math.Cos(phase0), math.Sin(phase0))
	inc := complex(math.Cos(step), math.Sin(step))
	for i := range x {
		x[i] *= rot
		rot *= inc
		if i&1023 == 1023 {
			m := cmplxAbs(rot)
			if m != 0 {
				rot /= complex(m, 0)
			}
		}
	}
	return x
}

// rotateConstant is the freq == 0 early-out of Rotate: the increment is
// exactly (1+0i), so the rotator stays constant between the periodic
// renormalization points and each 1024-sample block reduces to a single
// complex scale. The renormalization is replayed at the block boundaries
// so the output is bit-identical to the general recurrence.
func rotateConstant(x []complex128, phase0 float64) []complex128 {
	rot := complex(math.Cos(phase0), math.Sin(phase0))
	for start := 0; start < len(x); start += 1024 {
		end := start + 1024
		if end > len(x) {
			end = len(x)
		}
		for i := start; i < end; i++ {
			x[i] *= rot
		}
		if end == start+1024 {
			m := cmplxAbs(rot)
			if m != 0 {
				rot /= complex(m, 0)
			}
		}
	}
	return x
}

// MeanFloat returns the arithmetic mean of x, or 0 for an empty slice.
func MeanFloat(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// StdDevFloat returns the population standard deviation of x.
func StdDevFloat(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := MeanFloat(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(x)))
}

// RemoveDC subtracts the mean from x in place and returns x.
func RemoveDC(x []float64) []float64 {
	m := MeanFloat(x)
	for i := range x {
		x[i] -= m
	}
	return x
}

// Clone returns a copy of x.
func Clone(x []complex128) []complex128 {
	c := make([]complex128, len(x))
	copy(c, x)
	return c
}

// CloneFloat returns a copy of x.
func CloneFloat(x []float64) []float64 {
	c := make([]float64, len(x))
	copy(c, x)
	return c
}
