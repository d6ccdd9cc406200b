package dsp

import "math"

// CrossCorrPeak slides the complex reference ref over x and returns the
// offset with the largest normalized correlation magnitude along with
// that magnitude (in [0, 1], up to rounding). The normalization divides
// by the local signal energy, so the statistic is amplitude-invariant —
// the standard non-coherent packet-detection matched filter.
//
// maxOffset bounds the search (≤ 0 searches the whole overlap); callers
// bound it to their timing uncertainty. CrossCorrPeak is the 0 Hz case
// of CrossCorrSearch.
func CrossCorrPeak(x, ref []complex128, maxOffset int) (int, float64) {
	off, _, score := CrossCorrSearch(x, ref, maxOffset, zeroHz, 1)
	return off, score
}

var zeroHz = []float64{0}

// SyncThreshold is the matched-filter score a frame synchronizer needs
// to declare a lock.
const SyncThreshold = 0.5

// quietWindow is the guard of CrossCorrSearch: a window whose energy is
// at most this fraction of the transformed segment's scores 0. The FFT's
// rounding error per output is about 1.5e-15·√(E_seg·E_ref), so a score
// is off by about 1.5e-15·√(E_seg/E_x): ≈1.5e-10 just above this guard.
// A guard at 1e-12 let scores drift past 1e-9
// (TestCrossCorrSearchAgreesAboveGuard).
const quietWindow = 1e-10

// CrossCorrSearch is the matched filter over a grid of carrier offsets:
// for each candidate frequency freqs[k] (Hz, at sample rate rate) it
// scores every offset o in 0…min(maxOffset, len(x)−len(ref)) by
//
//	|Σ x[o+i]·conj(ref[i]·e^{j2π·freqs[k]·i/rate})| / √(E_x(o)·E_ref)
//
// and returns the best (offset, candidate index, score). Rotating the
// reference up by f is, in magnitude, derotating x down by f: the two
// sums differ only by the phase e^{−j2πf·o/rate}, and a window's energy
// does not change under rotation. Ties go to the lower candidate, then
// the lower offset. Offset −1 (candidate −1) means nothing scored above
// 0: an empty grid, a reference that does not fit or has no energy, or
// a silent capture.
//
// The correlation runs in the frequency domain: one forward FFT of the
// capture segment, then per candidate one FFT of the rotated reference
// and one inverse, zero-padded to the next power of two ≥ limit+len(ref)
// so the circular correlation equals the linear one at every searched
// offset. E_x(o) comes from a sliding-energy recurrence. Scores agree
// with the direct sum to about 1e-9, not bit for bit; windows at or
// below quietWindow of the segment's energy score 0.
func CrossCorrSearch(x, ref []complex128, maxOffset int, freqs []float64, rate float64) (off, cand int, score float64) {
	m := len(ref)
	if m == 0 || len(x) < m || len(freqs) == 0 {
		return -1, -1, 0
	}
	limit := len(x) - m
	if maxOffset > 0 && maxOffset < limit {
		limit = maxOffset
	}
	var eRef float64
	for _, v := range ref {
		eRef += real(v)*real(v) + imag(v)*imag(v)
	}
	if eRef == 0 {
		return -1, -1, 0
	}
	seg := x[:limit+m]
	n := NextPow2(len(seg))
	plan := PlanFFT(n)

	// Window energies by the sliding recurrence, and the guard floor.
	eX := SharedPool.GetFloat(limit + 1)
	defer SharedPool.PutFloat(eX)
	var e, eSeg float64
	for i, v := range seg {
		p := real(v)*real(v) + imag(v)*imag(v)
		eSeg += p
		if i < m {
			e += p
		}
	}
	for o := 0; o <= limit; o++ {
		eX[o] = e
		if o < limit {
			out, in := seg[o], seg[o+m]
			e += real(in)*real(in) + imag(in)*imag(in) -
				real(out)*real(out) - imag(out)*imag(out)
			if e < 0 {
				e = 0
			}
		}
	}
	floor := quietWindow * eSeg

	spec := SharedPool.GetComplex(n)
	defer SharedPool.PutComplex(spec)
	copy(spec, seg)
	clear(spec[len(seg):])
	plan.Forward(spec)

	corr := SharedPool.GetComplex(n)
	defer SharedPool.PutComplex(corr)
	// The inverse transform is left unscaled; 1/n folds into the score.
	norm := float64(n)
	off, cand = -1, -1
	for k, f := range freqs {
		copy(corr, ref)
		clear(corr[m:])
		if f != 0 {
			Rotate(corr[:m], f, rate, 0)
		}
		plan.Forward(corr)
		// X·conj(R): the spectrum of the correlation x ⋆ ref.
		for i, r := range corr {
			xv := spec[i]
			corr[i] = complex(real(xv)*real(r)+imag(xv)*imag(r), imag(xv)*real(r)-real(xv)*imag(r))
		}
		plan.transform(corr, plan.invRe, plan.invIm)
		for o, c := range corr[:limit+1] {
			if eX[o] <= floor {
				continue
			}
			s := math.Sqrt(real(c)*real(c)+imag(c)*imag(c)) / norm / math.Sqrt(eX[o]*eRef)
			if s > score {
				off, cand, score = o, k, s
			}
		}
	}
	return off, cand, score
}

// AutoCorrPlateau computes the normalized lag-L autocorrelation of x at
// every offset over a window of the same length L — the Schmidl&Cox-style
// detector for periodic training fields (the 802.11 L-STF repeats every
// 16 samples). It returns the first offset where the metric exceeds
// threshold for at least minRun consecutive samples, or -1.
func AutoCorrPlateau(x []complex128, lag, window int, threshold float64, minRun int) int {
	if lag <= 0 || window <= 0 || len(x) < lag+window {
		return -1
	}
	run := 0
	limit := len(x) - lag - window
	for off := 0; off <= limit; off++ {
		var accRe, accIm, e1, e2 float64
		for i := 0; i < window; i++ {
			a := x[off+i]
			b := x[off+i+lag]
			accRe += real(a)*real(b) + imag(a)*imag(b)
			accIm += imag(a)*real(b) - real(a)*imag(b)
			e1 += real(a)*real(a) + imag(a)*imag(a)
			e2 += real(b)*real(b) + imag(b)*imag(b)
		}
		den := math.Sqrt(e1 * e2)
		metric := 0.0
		if den > 0 {
			metric = math.Hypot(accRe, accIm) / den
		}
		if metric >= threshold {
			run++
			if run >= minRun {
				return off - minRun + 1
			}
		} else {
			run = 0
		}
	}
	return -1
}
