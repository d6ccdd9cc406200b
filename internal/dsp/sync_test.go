package dsp

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// directCorrScores is the O(n·m) time-domain matched filter that
// CrossCorrSearch replaces, kept as its oracle. It returns the score of
// every searched offset for one reference, with the same sliding-energy
// recurrence and the same quiet-window guard, or nil when nothing can
// be searched.
func directCorrScores(x, ref []complex128, maxOffset int) []float64 {
	m := len(ref)
	if m == 0 || len(x) < m {
		return nil
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
		return nil
	}
	var eSeg float64
	for _, v := range x[:limit+m] {
		eSeg += real(v)*real(v) + imag(v)*imag(v)
	}
	floor := quietWindow * eSeg
	scores := make([]float64, limit+1)
	var eX float64
	for i := 0; i < m; i++ {
		eX += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	for off := 0; off <= limit; off++ {
		if eX > floor {
			var accRe, accIm float64
			for i := 0; i < m; i++ {
				xv := x[off+i]
				rv := ref[i]
				accRe += real(xv)*real(rv) + imag(xv)*imag(rv)
				accIm += imag(xv)*real(rv) - real(xv)*imag(rv)
			}
			scores[off] = math.Sqrt(accRe*accRe+accIm*accIm) / math.Sqrt(eX*eRef)
		}
		if off < limit {
			out := x[off]
			in := x[off+m]
			eX += real(in)*real(in) + imag(in)*imag(in) -
				real(out)*real(out) - imag(out)*imag(out)
			if eX < 0 {
				eX = 0
			}
		}
	}
	return scores
}

// directSearch runs the oracle once per candidate, on a reference
// rotated exactly as CrossCorrSearch rotates it, and returns every
// candidate's scores plus the best (offset, candidate, score) under the
// kernel's tie order: lower candidate, then lower offset, strict >.
func directSearch(x, ref []complex128, maxOffset int, freqs []float64, rate float64) (scores [][]float64, off, cand int, best float64) {
	off, cand = -1, -1
	for k, f := range freqs {
		r := Clone(ref)
		if f != 0 {
			Rotate(r, f, rate, 0)
		}
		s := directCorrScores(x, r, maxOffset)
		scores = append(scores, s)
		for o, v := range s {
			if v > best {
				off, cand, best = o, k, v
			}
		}
	}
	return scores, off, cand, best
}

// checkSearch holds a kernel result to the oracle: the score within tol
// of the oracle's best, and the chosen (candidate, offset) either the
// oracle's or one the oracle scores within tol of its best (a tie).
func checkSearch(t *testing.T, x, ref []complex128, maxOffset int, freqs []float64, rate float64, off, cand int, score float64) {
	t.Helper()
	const tol = 1e-9
	scores, wantOff, wantCand, best := directSearch(x, ref, maxOffset, freqs, rate)
	if math.IsNaN(score) || math.Abs(score-best) > tol {
		t.Fatalf("score %v, direct %v (offset %d, candidate %d)", score, best, wantOff, wantCand)
	}
	if off == wantOff && cand == wantCand {
		return
	}
	var at float64
	if off >= 0 && cand >= 0 && cand < len(scores) && off < len(scores[cand]) {
		at = scores[cand][off]
	} else if off >= 0 || cand >= 0 {
		t.Fatalf("(offset %d, candidate %d) outside the searched grid", off, cand)
	}
	if best-at > tol {
		t.Fatalf("chose (offset %d, candidate %d) scoring %v directly; direct best (%d, %d) scores %v",
			off, cand, at, wantOff, wantCand, best)
	}
}

// fuzzSamples decodes bytes into at most max complex samples whose real
// and imaginary parts are int8/256, so |v| < 1. Two opcodes shape the
// stream: 0x00 n appends a run of n+1 exact zeros, and 0x01 n repeats
// the last n+1 samples (or all of them, if fewer).
func fuzzSamples(b []byte, max int) []complex128 {
	var out []complex128
	for i := 0; i < len(b) && len(out) < max; {
		op := b[i]
		i++
		var arg byte
		if i < len(b) {
			arg = b[i]
			i++
		}
		switch op {
		case 0x00:
			for k := 0; k <= int(arg); k++ {
				out = append(out, 0)
			}
		case 0x01:
			n := min(int(arg)+1, len(out))
			out = append(out, out[len(out)-n:]...)
		default:
			out = append(out, complex(float64(int8(op))/256, float64(int8(arg))/256))
		}
	}
	if len(out) > max {
		out = out[:max]
	}
	return out
}

func FuzzCrossCorrPeak(f *testing.F) {
	noise := func(n int, seed int64) []byte {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	// A reference planted in noise, a repeated block, zero runs around
	// the reference, and a silent capture.
	ref := noise(96, 1)
	planted := append(append(noise(300, 2), ref...), noise(200, 3)...)
	f.Add(planted, ref, 0, uint8(0))
	f.Add(planted, ref, 120, uint8(3))
	f.Add(append(ref, 0x01, 47, 0x01, 47, 0x01, 47), ref, -5, uint8(1))
	f.Add(append(append([]byte{0x00, 200, 0x00, 255}, ref...), 0x00, 255), ref, 1<<30, uint8(2))
	f.Add([]byte{0x00, 255, 0x00, 255}, ref, 0, uint8(0))
	f.Fuzz(func(t *testing.T, xb, rb []byte, maxOffset int, grid uint8) {
		x := fuzzSamples(xb, 2048)
		r := fuzzSamples(rb, 256)
		off, score := CrossCorrPeak(x, r, maxOffset)
		cand := 0
		if off < 0 {
			cand = -1
		}
		checkSearch(t, x, r, maxOffset, zeroHz, 1, off, cand, score)
		// A grid of 1–4 candidates 7 kHz apart, below and above 0 Hz.
		const rate = 8e6
		freqs := make([]float64, 1+int(grid)%4)
		for k := range freqs {
			freqs[k] = float64(k-1) * 7e3
		}
		off, cand, score = CrossCorrSearch(x, r, maxOffset, freqs, rate)
		checkSearch(t, x, r, maxOffset, freqs, rate, off, cand, score)
	})
}

func TestCrossCorrSearchFindsOffsetAndFrequency(t *testing.T) {
	const rate, cfo, at = 8e6, 12e3, 333
	rng := rand.New(rand.NewSource(5))
	ref := make([]complex128, 256)
	for i := range ref {
		ref[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	x := make([]complex128, 1500)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 0.05
	}
	copy(x[at:], ref)
	Rotate(x, cfo, rate, 0.7)
	// 12 kHz appears twice: the tie goes to the lower candidate.
	freqs := []float64{-20e3, -10e3, 0, 12e3, 10e3, 20e3, 12e3}
	off, cand, score := CrossCorrSearch(x, ref, 0, freqs, rate)
	if off != at || cand != 3 || score < 0.99 {
		t.Fatalf("found (%d, candidate %d, %.4f), want (%d, candidate 3, ≈1)", off, cand, score, at)
	}
	checkSearch(t, x, ref, 0, freqs, rate, off, cand, score)
	// Degenerate grids and captures.
	if off, cand, _ := CrossCorrSearch(x, ref, 0, nil, rate); off != -1 || cand != -1 {
		t.Fatalf("empty grid: (%d, %d)", off, cand)
	}
	if off, cand, _ := CrossCorrSearch(make([]complex128, 600), ref, 0, freqs, rate); off != -1 || cand != -1 {
		t.Fatalf("silent capture: (%d, %d)", off, cand)
	}
}

// TestCrossCorrPeakQuietWindows pins the guard on the windows the
// sliding recurrence gets wrong: after a loud block, an all-zero
// window's energy is a rounding residue rather than 0. The reference's
// one tap lands past the loud block at every offset, so every direct
// correlation is exactly 0 and so is the direct best. Unguarded, a
// residue window would score the FFT's rounding noise divided by the
// residue's square root, far above 1e-9.
func TestCrossCorrPeakQuietWindows(t *testing.T) {
	ref := make([]complex128, 64)
	ref[63] = 1
	residues := 0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x := make([]complex128, 600)
		for i := 0; i < 40; i++ {
			x[i] = complex(rng.NormFloat64()*1e3, rng.NormFloat64()*1e3)
		}
		var e float64
		for _, v := range x[:len(ref)] {
			e += real(v)*real(v) + imag(v)*imag(v)
		}
		for _, v := range x[:40] {
			e -= real(v)*real(v) + imag(v)*imag(v)
		}
		if e > 0 {
			residues++
		}
		off, score := CrossCorrPeak(x, ref, 0)
		cand := 0
		if off < 0 {
			cand = -1
		}
		checkSearch(t, x, ref, 0, zeroHz, 1, off, cand, score)
	}
	if residues == 0 {
		t.Fatal("no seed left a positive energy residue; the test checks nothing")
	}
}

// TestCrossCorrSearchAgreesAboveGuard pins the FFT's accuracy where it
// is worst: a faint copy of the reference whose window holds 1–100 times
// the guard's share of a loud segment's energy. The score must still
// agree with the direct sum to 1e-9.
func TestCrossCorrSearchAgreesAboveGuard(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := make([]complex128, 320)
		var eRef float64
		for i := range ref {
			ref[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			eRef += real(ref[i])*real(ref[i]) + imag(ref[i])*imag(ref[i])
		}
		x := make([]complex128, 2320)
		var eLoud float64
		for i := 0; i < 1000; i++ {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			eLoud += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		share := 1.05 * quietWindow * math.Pow(100, rng.Float64())
		amp := complex(math.Sqrt(share*eLoud/eRef), 0)
		at := 1400 + rng.Intn(500)
		for i, v := range ref {
			x[at+i] = v * amp
		}
		off, score := CrossCorrPeak(x, ref, 0)
		if off != at {
			t.Fatalf("seed %d: peak at %d, want %d", seed, off, at)
		}
		checkSearch(t, x, ref, 0, zeroHz, 1, off, 0, score)
	}
}

// TestCrossCorrSearchAnyGOMAXPROCS pins the block split: at any
// GOMAXPROCS the search returns the serial (GOMAXPROCS 1) offset,
// candidate and score bits. The dup grid repeats the true frequency at
// candidates 1 and 6, which land in different blocks at every tested
// GOMAXPROCS, so their scores tie exactly and only a strict merge in
// block order keeps the lower candidate.
func TestCrossCorrSearchAnyGOMAXPROCS(t *testing.T) {
	const rate, cfo, at = 8e6, 12e3, 333
	rng := rand.New(rand.NewSource(9))
	ref := make([]complex128, 256)
	for i := range ref {
		ref[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	x := make([]complex128, 1500)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 0.05
	}
	copy(x[at:], ref)
	Rotate(x, cfo, rate, 0.4)
	grid := func(n int, lo, step float64) []float64 {
		g := make([]float64, n)
		for k := range g {
			g[k] = lo + step*float64(k)
		}
		return g
	}
	grids := map[string][]float64{
		"1":   {0},
		"2":   {-5e3, 12e3},
		"25":  grid(25, -60e3, 5e3),
		"41":  grid(41, -60e3, 3e3),
		"dup": {-20e3, cfo, -10e3, 0, 5e3, 10e3, cfo, 20e3},
	}
	type result struct {
		off, cand int
		bits      uint64
	}
	search := func(freqs []float64) result {
		off, cand, score := CrossCorrSearch(x, ref, 0, freqs, rate)
		return result{off, cand, math.Float64bits(score)}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := map[string]result{}
	runtime.GOMAXPROCS(1)
	for name, freqs := range grids {
		want[name] = search(freqs)
	}
	if w := want["dup"]; w.off != at || w.cand != 1 {
		t.Fatalf("dup grid at GOMAXPROCS 1: offset %d candidate %d, want %d and 1", w.off, w.cand, at)
	}
	for _, procs := range []int{2, 3, 4, 7} {
		runtime.GOMAXPROCS(procs)
		for name, freqs := range grids {
			if got := search(freqs); got != want[name] {
				t.Errorf("GOMAXPROCS %d, grid %s: got %+v, want %+v", procs, name, got, want[name])
			}
		}
	}
}
