package dsp

import (
	"fmt"
	"math"
	"math/bits"
)

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x. The length of x must be a power of two; FFT panics
// otherwise, because a non-power-of-two length is a programming error in
// this codebase (all OFDM symbol sizes are powers of two).
//
// FFT is a thin wrapper over the cached FFTPlan for len(x); repeated
// transforms of one size reuse the plan's bit-reversal and twiddle
// tables. Results are bit-identical to the legacy direct implementation
// (kept below as fftDirect for equivalence tests and benchmarks).
func FFT(x []complex128) {
	if len(x) == 0 {
		return
	}
	PlanFFT(len(x)).Forward(x)
}

// IFFT computes the in-place inverse FFT of x, including the 1/N scaling.
// The length of x must be a power of two. Like FFT it dispatches to the
// cached plan for len(x).
func IFFT(x []complex128) {
	if len(x) == 0 {
		return
	}
	PlanFFT(len(x)).Inverse(x)
}

// fftDirect is the pre-plan implementation, retained as the reference for
// the plan-equivalence tests and the FFTPlan-vs-legacy benchmarks. The
// inverse path includes the 1/N scaling.
func fftDirect(x []complex128, inverse bool) {
	fftInPlace(x, inverse)
	if inverse {
		n := complex(float64(len(x)), 0)
		for i := range x {
			x[i] /= n
		}
	}
}

func fftInPlace(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		theta := sign * 2 * math.Pi / float64(size)
		wstep := complex(math.Cos(theta), math.Sin(theta))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wstep
			}
		}
	}
}

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// SpectrumPower computes the power spectrum |FFT(x)|^2/N of x zero-padded to
// a power of two. It is used by tests and diagnostics, not the hot path.
func SpectrumPower(x []complex128) []float64 {
	n := NextPow2(len(x))
	buf := make([]complex128, n)
	copy(buf, x)
	FFT(buf)
	out := make([]float64, n)
	for i, v := range buf {
		re, im := real(v), imag(v)
		out[i] = (re*re + im*im) / float64(n)
	}
	return out
}
