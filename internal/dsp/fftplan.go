package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// FFTPlan holds the precomputed state for radix-2 decimation-in-time
// transforms of one size: the bit-reversal permutation and the per-stage
// twiddle-factor tables, stored as split real/imag float64 slices.
//
// The twiddle tables are generated with the exact incremental recurrence
// (w *= wstep) the direct transform uses, so a planned transform is
// bit-identical to the legacy per-call implementation — a property the
// golden traces and replay gate pin. Plans are immutable after
// construction and safe for concurrent use.
type FFTPlan struct {
	n   int
	rev []int32 // bit-reversal permutation (only entries with rev[i] > i swap)
	// Twiddle factors for all stages, flattened in stage order
	// (size = 2, 4, ..., n; each stage contributes size/2 factors,
	// n-1 in total). fwd holds exp(-jθ) powers, inv holds exp(+jθ).
	fwdRe, fwdIm []float64
	invRe, invIm []float64
}

var planCache sync.Map // int -> *FFTPlan

// PlanFFT returns the cached transform plan for length n, building it on
// first use. n must be a power of two; PlanFFT panics otherwise, because a
// non-power-of-two length is a programming error in this codebase (all
// OFDM symbol sizes are powers of two).
func PlanFFT(n int) *FFTPlan {
	if v, ok := planCache.Load(n); ok {
		return v.(*FFTPlan)
	}
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	p := newFFTPlan(n)
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*FFTPlan)
}

func newFFTPlan(n int) *FFTPlan {
	p := &FFTPlan{
		n:     n,
		rev:   make([]int32, n),
		fwdRe: make([]float64, n-1),
		fwdIm: make([]float64, n-1),
		invRe: make([]float64, n-1),
		invIm: make([]float64, n-1),
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		p.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	fillTwiddles(p.fwdRe, p.fwdIm, n, -1)
	fillTwiddles(p.invRe, p.invIm, n, +1)
	return p
}

// fillTwiddles reproduces the legacy incremental twiddle recurrence: for
// each stage, w starts at 1 and is multiplied by wstep per butterfly. The
// multiply is written out in components exactly as Go's complex128
// multiply evaluates it, so every stored factor matches the value the
// direct implementation would have computed on the fly.
func fillTwiddles(dstRe, dstIm []float64, n int, sign float64) {
	idx := 0
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		theta := sign * 2 * math.Pi / float64(size)
		wsRe, wsIm := math.Cos(theta), math.Sin(theta)
		wRe, wIm := 1.0, 0.0
		for k := 0; k < half; k++ {
			dstRe[idx], dstIm[idx] = wRe, wIm
			idx++
			wRe, wIm = wRe*wsRe-wIm*wsIm, wRe*wsIm+wIm*wsRe
		}
	}
}

// Len returns the transform size the plan was built for.
func (p *FFTPlan) Len() int { return p.n }

// Forward computes the in-place forward FFT of x. len(x) must equal the
// plan size.
func (p *FFTPlan) Forward(x []complex128) {
	p.transform(x, p.fwdRe, p.fwdIm)
}

// Inverse computes the in-place inverse FFT of x including the 1/N
// scaling. len(x) must equal the plan size.
func (p *FFTPlan) Inverse(x []complex128) {
	p.transform(x, p.invRe, p.invIm)
	n := float64(p.n)
	for i, v := range x {
		x[i] = complex(real(v)/n, imag(v)/n)
	}
}

// transform runs the butterfly schedule over interleaved complex128
// samples. Each butterfly is written in explicit float64 component form —
// the same operations Go emits for complex multiply — so results match
// the legacy implementation bit for bit.
//
// Stages run in pairs: stage size and stage 2·size make one pass over
// each group of 2·size elements. A group's butterfly pairs are
// independent quartets {k, k+h, k+size, k+size+h} (h = size/2): stage
// size combines (k, k+h) and (k+size, k+size+h) with twiddle w₁[k], then
// stage 2·size combines (k, k+size) with w₂[k] and (k+h, k+size+h) with
// w₂[k+h]. Each quartet's four values stay in registers between the two
// stages. Every butterfly pairs the same elements, reads the same twiddle
// and evaluates the same expression as the one-stage-per-pass schedule;
// only the order of independent butterflies changes, so every output is
// bitwise identical for every input. An odd number of stages ends with
// one plain radix-2 stage.
func (p *FFTPlan) transform(x []complex128, twRe, twIm []float64) {
	n := p.n
	if len(x) != n {
		panic(fmt.Sprintf("dsp: FFTPlan size %d applied to length %d", n, len(x)))
	}
	for i, j := range p.rev {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	size := 2
	if n >= 4 {
		// The first pair (stages 2 and 4) has one quartet per group;
		// it gets its own loop over 4-element groups because the general
		// loop's per-group slicing costs about as much as the quartet (a
		// 4096-point transform ran about 17% slower without this loop on
		// a 2-core Xeon VM). Its twiddles: w₁ = tw[0], w₂ = tw[1:3].
		w1Re, w1Im := twRe[0], twIm[0]
		w2Re, w2Im := twRe[1], twIm[1]
		w3Re, w3Im := twRe[2], twIm[2]
		for start := 0; start+4 <= n; start += 4 {
			g := x[start : start+4 : start+4]
			aRe, aIm := real(g[0]), imag(g[0])
			bRe, bIm := real(g[1]), imag(g[1])
			cRe, cIm := real(g[2]), imag(g[2])
			dRe, dIm := real(g[3]), imag(g[3])

			wRe, wIm := w1Re, w1Im
			tRe := bRe*wRe - bIm*wIm
			tIm := bRe*wIm + bIm*wRe
			aRe, aIm, bRe, bIm = aRe+tRe, aIm+tIm, aRe-tRe, aIm-tIm
			tRe = dRe*wRe - dIm*wIm
			tIm = dRe*wIm + dIm*wRe
			cRe, cIm, dRe, dIm = cRe+tRe, cIm+tIm, cRe-tRe, cIm-tIm

			wRe, wIm = w2Re, w2Im
			tRe = cRe*wRe - cIm*wIm
			tIm = cRe*wIm + cIm*wRe
			g[0] = complex(aRe+tRe, aIm+tIm)
			g[2] = complex(aRe-tRe, aIm-tIm)
			wRe, wIm = w3Re, w3Im
			tRe = dRe*wRe - dIm*wIm
			tIm = dRe*wIm + dIm*wRe
			g[1] = complex(bRe+tRe, bIm+tIm)
			g[3] = complex(bRe-tRe, bIm-tIm)
		}
		size = 8
	}
	for ; 2*size <= n; size <<= 2 {
		// Stage size's twiddles start at offset size/2−1, stage 2·size's
		// at size−1 (each stage s holds s/2 factors).
		h := size >> 1
		w1Re, w1Im := twRe[h-1:size-1], twIm[h-1:size-1]
		w2Re, w2Im := twRe[size-1:2*size-1], twIm[size-1:2*size-1]
		w3Re, w3Im := w2Re[h:], w2Im[h:]
		for start := 0; start < n; start += 2 * size {
			q0 := x[start : start+h : start+h]
			q1 := x[start+h : start+size : start+size][:len(q0)]
			q2 := x[start+size : start+size+h : start+size+h][:len(q0)]
			q3 := x[start+size+h : start+2*size : start+2*size][:len(q0)]
			w3Re, w3Im := w3Re[:len(q0)], w3Im[:len(q0)]
			for k := range q0 {
				aRe, aIm := real(q0[k]), imag(q0[k])
				bRe, bIm := real(q1[k]), imag(q1[k])
				cRe, cIm := real(q2[k]), imag(q2[k])
				dRe, dIm := real(q3[k]), imag(q3[k])

				// Stage size: (a, b) and (c, d), both with w₁[k].
				wRe, wIm := w1Re[k], w1Im[k]
				tRe := bRe*wRe - bIm*wIm
				tIm := bRe*wIm + bIm*wRe
				aRe, aIm, bRe, bIm = aRe+tRe, aIm+tIm, aRe-tRe, aIm-tIm
				tRe = dRe*wRe - dIm*wIm
				tIm = dRe*wIm + dIm*wRe
				cRe, cIm, dRe, dIm = cRe+tRe, cIm+tIm, cRe-tRe, cIm-tIm

				// Stage 2·size: (a, c) with w₂[k], (b, d) with w₂[k+h].
				wRe, wIm = w2Re[k], w2Im[k]
				tRe = cRe*wRe - cIm*wIm
				tIm = cRe*wIm + cIm*wRe
				q0[k] = complex(aRe+tRe, aIm+tIm)
				q2[k] = complex(aRe-tRe, aIm-tIm)
				wRe, wIm = w3Re[k], w3Im[k]
				tRe = dRe*wRe - dIm*wIm
				tIm = dRe*wIm + dIm*wRe
				q1[k] = complex(bRe+tRe, bIm+tIm)
				q3[k] = complex(bRe-tRe, bIm-tIm)
			}
		}
	}
	if size == n {
		// The last stage of an odd count, alone.
		half := size >> 1
		stRe, stIm := twRe[half-1:size-1], twIm[half-1:size-1]
		lo := x[:half:half]
		hi := x[half:size:size][:len(lo)]
		for k := range lo {
			wRe, wIm := stRe[k], stIm[k]
			bRe, bIm := real(hi[k]), imag(hi[k])
			tRe := bRe*wRe - bIm*wIm
			tIm := bRe*wIm + bIm*wRe
			aRe, aIm := real(lo[k]), imag(lo[k])
			lo[k] = complex(aRe+tRe, aIm+tIm)
			hi[k] = complex(aRe-tRe, aIm-tIm)
		}
	}
}
