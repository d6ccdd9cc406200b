package dsp

import (
	"math"
	"runtime"
	"sync"
)

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
//
// The candidates are split into min(GOMAXPROCS, len(freqs)) contiguous
// blocks scored concurrently, each with its own pooled buffer. The
// result is bitwise the same at any GOMAXPROCS; with one block (one
// candidate, or GOMAXPROCS 1) no goroutine starts.
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

	// Window energies by the sliding recurrence, and the guard floor;
	// the score denominators share their buffer.
	buf := SharedPool.GetFloat(2 * (limit + 1))
	defer SharedPool.PutFloat(buf)
	eX, den := buf[:limit+1], buf[limit+1:]
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
	// The score's denominators, once per offset rather than per
	// candidate: the same operands, so the same bits.
	for o, e := range eX {
		den[o] = math.Sqrt(e * eRef)
	}

	spec := SharedPool.GetComplex(n)
	defer SharedPool.PutComplex(spec)
	copy(spec, seg)
	clear(spec[len(seg):])
	plan.Forward(spec)

	s := corrSearch{plan: plan, spec: spec, ref: ref, eX: eX, den: den, floor: floor, rate: rate}
	w := min(runtime.GOMAXPROCS(0), len(freqs))
	if w == 1 {
		best := s.block(freqs, 0)
		return best.off, best.cand, best.score
	}
	// Contiguous candidate blocks, one per core: the caller runs block
	// 0 while w−1 goroutines run the rest. Each block keeps the serial
	// tie order within itself (lower candidate, then lower offset), and
	// merging the winners in block order with a strict > keeps it across
	// blocks, so the result is the serial one at any GOMAXPROCS.
	bests := make([]corrBest, w)
	var wg sync.WaitGroup
	for b := 1; b < w; b++ {
		lo, hi := b*len(freqs)/w, (b+1)*len(freqs)/w
		wg.Add(1)
		go func() {
			defer wg.Done()
			bests[b] = s.block(freqs[lo:hi], lo)
		}()
	}
	bests[0] = s.block(freqs[:len(freqs)/w], 0)
	wg.Wait()
	best := bests[0]
	for _, b := range bests[1:] {
		if b.score > best.score {
			best = b
		}
	}
	return best.off, best.cand, best.score
}

// corrSearch is the read-only state CrossCorrSearch's candidate blocks
// share: the plan, the capture spectrum, the reference and the
// per-offset window energies and score denominators.
type corrSearch struct {
	plan        *FFTPlan
	spec, ref   []complex128
	eX, den     []float64
	floor, rate float64
}

// corrBest is one block's winner; off and cand are −1 when nothing in
// the block scored above 0.
type corrBest struct {
	off, cand int
	score     float64
}

// block scores the candidates freqs, whose first is candidate index
// first of the whole grid, with its own pooled correlation buffer.
func (s corrSearch) block(freqs []float64, first int) corrBest {
	n := s.plan.Len()
	m := len(s.ref)
	limit := len(s.eX) - 1
	corr := SharedPool.GetComplex(n)
	defer SharedPool.PutComplex(corr)
	// The inverse transform is left unscaled; 1/n folds into the score.
	norm := float64(n)
	best := corrBest{off: -1, cand: -1}
	for k, f := range freqs {
		copy(corr, s.ref)
		clear(corr[m:])
		if f != 0 {
			Rotate(corr[:m], f, s.rate, 0)
		}
		s.plan.Forward(corr)
		// X·conj(R): the spectrum of the correlation x ⋆ ref.
		for i, r := range corr {
			xv := s.spec[i]
			corr[i] = complex(real(xv)*real(r)+imag(xv)*imag(r), imag(xv)*real(r)-real(xv)*imag(r))
		}
		s.plan.transform(corr, s.plan.invRe, s.plan.invIm)
		for o, c := range corr[:limit+1] {
			if s.eX[o] <= s.floor {
				continue
			}
			sc := math.Sqrt(real(c)*real(c)+imag(c)*imag(c)) / norm / s.den[o]
			if sc > best.score {
				best = corrBest{off: o, cand: first + k, score: sc}
			}
		}
	}
	return best
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
