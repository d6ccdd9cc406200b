package dsp

import (
	"math"
	"testing"
)

// TestFFTPlanMatchesDirect pins the tentpole invariant: the planned
// transforms are bit-identical to the legacy direct implementation for
// every size the simulator uses.
func TestFFTPlanMatchesDirect(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128, 256, 1024, 2048, 4096, 8192} {
		x := randomIQ(n, int64(100+n))

		got := Clone(x)
		FFT(got)
		want := Clone(x)
		fftDirect(want, false)
		requireIdentical(t, "FFT", n, got, want)

		got = Clone(x)
		IFFT(got)
		want = Clone(x)
		fftDirect(want, true)
		requireIdentical(t, "IFFT", n, got, want)
	}
}

// transformStaged is the one-stage-per-pass butterfly schedule the
// paired kernel replaced, kept verbatim as the oracle of
// TestFFTPlanMatchesStaged.
func transformStaged(p *FFTPlan, x []complex128, twRe, twIm []float64) {
	n := p.n
	for i, j := range p.rev {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	idx := 0
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stRe := twRe[idx : idx+half]
		stIm := twIm[idx : idx+half]
		idx += half
		for start := 0; start < n; start += size {
			lo := x[start : start+half : start+half]
			hi := x[start+half : start+size : start+size]
			for k := 0; k < half; k++ {
				wRe, wIm := stRe[k], stIm[k]
				a := lo[k]
				b := hi[k]
				bRe, bIm := real(b), imag(b)
				tRe := bRe*wRe - bIm*wIm
				tIm := bRe*wIm + bIm*wRe
				aRe, aIm := real(a), imag(a)
				lo[k] = complex(aRe+tRe, aIm+tIm)
				hi[k] = complex(aRe-tRe, aIm-tIm)
			}
		}
	}
}

// TestFFTPlanMatchesStaged pins the paired-stage kernel to the staged
// schedule bit for bit (math.Float64bits, so signed zeros and NaN
// payloads count) at every power of two up to 8192, in both directions,
// on random inputs and on inputs full of exact and signed zeros such as
// an OFDM symbol's null subcarriers.
func TestFFTPlanMatchesStaged(t *testing.T) {
	inputs := map[string]func(n int) []complex128{
		"random": func(n int) []complex128 { return randomIQ(n, int64(300+n)) },
		"zeros": func(n int) []complex128 {
			x := randomIQ(n, int64(400+n))
			negZero := math.Copysign(0, -1)
			for i := range x {
				switch i % 5 {
				case 0:
					x[i] = 0
				case 1:
					x[i] = complex(negZero, negZero)
				case 2:
					x[i] = complex(real(x[i]), negZero)
				case 3:
					x[i] = complex(negZero, 0)
				}
			}
			return x
		},
		"nonfinite": func(n int) []complex128 {
			x := randomIQ(n, int64(500+n))
			x[0] = complex(math.Inf(1), 0)
			x[n/2] = complex(math.NaN(), math.Inf(-1))
			return x
		},
	}
	for n := 1; n <= 8192; n <<= 1 {
		p := PlanFFT(n)
		for name, gen := range inputs {
			for _, dir := range []struct {
				name       string
				twRe, twIm []float64
			}{{"forward", p.fwdRe, p.fwdIm}, {"inverse", p.invRe, p.invIm}} {
				x := gen(n)
				got := Clone(x)
				p.transform(got, dir.twRe, dir.twIm)
				want := Clone(x)
				transformStaged(p, want, dir.twRe, dir.twIm)
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("%s %s n=%d bin %d: paired %v staged %v", name, dir.name, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

func TestFFTPlanRoundTrip(t *testing.T) {
	x := randomIQ(256, 42)
	y := Clone(x)
	FFT(y)
	IFFT(y)
	for i := range x {
		if math.Abs(real(y[i])-real(x[i])) > 1e-12 || math.Abs(imag(y[i])-imag(x[i])) > 1e-12 {
			t.Fatalf("round trip diverged at %d: %v vs %v", i, y[i], x[i])
		}
	}
}

func TestFFTPlanCached(t *testing.T) {
	if PlanFFT(64) != PlanFFT(64) {
		t.Fatal("PlanFFT(64) returned distinct plans for the same size")
	}
}

func TestPlanFFTPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PlanFFT(12) did not panic")
		}
	}()
	PlanFFT(12)
}

func TestFFTZeroAlloc(t *testing.T) {
	x := randomIQ(64, 7)
	PlanFFT(64) // warm the cache
	allocs := testing.AllocsPerRun(100, func() {
		FFT(x)
		IFFT(x)
	})
	if allocs != 0 {
		t.Fatalf("FFT+IFFT allocated %v times per run; want 0", allocs)
	}
}

// rotateReference is the pre-early-out Rotate, kept verbatim as the
// equivalence oracle.
func rotateReference(x []complex128, freq, rate, phase0 float64) []complex128 {
	if len(x) == 0 {
		return x
	}
	step := 2 * math.Pi * freq / rate
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

// TestRotateEquivalence checks both Rotate paths — the freq == 0
// early-out (which replays the periodic renormalization so even the
// drift-correction bits match) and the general recurrence — against the
// old implementation.
func TestRotateEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		freq   float64
		phase0 float64
	}{
		{"zero-freq-short", 100, 0, 0.7},
		{"zero-freq-exact-block", 1024, 0, -1.3},
		{"zero-freq-multi-block", 5000, 0, 2.1},
		{"general", 5000, 1e5, 0.3},
		{"negative-freq", 2048, -3e4, 0},
	}
	for _, tc := range cases {
		x := randomIQ(tc.n, 99)
		got := Clone(x)
		want := Clone(x)
		Rotate(got, tc.freq, 20e6, tc.phase0)
		rotateReference(want, tc.freq, 20e6, tc.phase0)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: sample %d differs: %v vs %v", tc.name, i, got[i], want[i])
			}
		}
	}
}

// TestFIRIntoMatchesLegacy pins ApplyFloatInto/ApplyInto (edge-split
// loops) and the single-sample ApplyFloatAt against a literal
// transcription of the old bounds-checked implementation.
func TestFIRIntoMatchesLegacy(t *testing.T) {
	for _, taps := range []int{1, 3, 9, 63} {
		f := NewLowpass(0.12, taps)
		for _, n := range []int{1, 5, 64, 500} {
			x := randomIQ(n, int64(taps*1000+n))
			xf := make([]float64, n)
			for i, v := range x {
				xf[i] = real(v)
			}

			wantF := make([]float64, n)
			delay := (len(f.Taps) - 1) / 2
			for i := range wantF {
				var acc float64
				for k, tv := range f.Taps {
					j := i + delay - k
					if j >= 0 && j < len(xf) {
						acc += tv * xf[j]
					}
				}
				wantF[i] = acc
			}
			gotF := f.ApplyFloat(xf)
			for i := range wantF {
				if gotF[i] != wantF[i] {
					t.Fatalf("ApplyFloat taps=%d n=%d sample %d: %v vs %v", taps, n, i, gotF[i], wantF[i])
				}
				if at := f.ApplyFloatAt(xf, i); math.Float64bits(at) != math.Float64bits(wantF[i]) {
					t.Fatalf("ApplyFloatAt taps=%d n=%d sample %d: %v vs %v", taps, n, i, at, wantF[i])
				}
			}

			wantC := make([]complex128, n)
			for i := range wantC {
				var accRe, accIm float64
				for k, tv := range f.Taps {
					j := i + delay - k
					if j >= 0 && j < len(x) {
						accRe += tv * real(x[j])
						accIm += tv * imag(x[j])
					}
				}
				wantC[i] = complex(accRe, accIm)
			}
			gotC := f.ApplyInto(make([]complex128, n), x)
			for i := range wantC {
				if gotC[i] != wantC[i] {
					t.Fatalf("ApplyInto taps=%d n=%d sample %d: %v vs %v", taps, n, i, gotC[i], wantC[i])
				}
			}
		}
	}
}

// TestSlidingNormCorrIntoMatches checks every offset's score against the
// normalized correlation summed directly, sample by sample, including a
// stretch of silence (zero window energy, score 0), a silent template and
// templates that do not fit.
func TestSlidingNormCorrIntoMatches(t *testing.T) {
	rngIQ := randomIQ(300, 5)
	x := make([]float64, len(rngIQ))
	for i, v := range rngIQ {
		x[i] = real(v)
	}
	clear(x[200:280])
	for _, tmpl := range [][]float64{x[40:100:100], x[150:153:153], x[:1:1], make([]float64, 8)} {
		n := len(x) - len(tmpl) + 1
		got := SlidingNormCorrInto(make([]float64, n), x, tmpl)
		if len(got) != n {
			t.Fatalf("template of %d: %d scores, want %d", len(tmpl), len(got), n)
		}
		for off := range n {
			var dot, ex, et float64
			for i, v := range tmpl {
				dot += x[off+i] * v
				ex += x[off+i] * x[off+i]
				et += v * v
			}
			want := 0.0
			if ex != 0 && et != 0 {
				want = dot / math.Sqrt(ex*et)
			}
			if got[off] != want {
				t.Fatalf("template of %d, offset %d: %v, direct sum %v", len(tmpl), off, got[off], want)
			}
		}
	}
	if SlidingNormCorrInto(make([]float64, 1), x[:10], x[:11]) != nil || SlidingNormCorrInto(nil, x, nil) != nil {
		t.Fatal("a template that does not fit must give nil")
	}
}

func TestEnvelopeIntoMatches(t *testing.T) {
	x := randomIQ(257, 11)
	want := Envelope(x)
	got := EnvelopeInto(make([]float64, len(x)), x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestUpsampleHoldIntoMatches checks every output sample against the input
// sample it holds, at several rates (sps < 1 holds each sample once).
func TestUpsampleHoldIntoMatches(t *testing.T) {
	x := randomIQ(33, 13)
	xf := make([]float64, len(x))
	for i, v := range x {
		xf[i] = real(v)
	}
	for _, sps := range []int{-2, 0, 1, 4, 7} {
		hold := max(sps, 1)
		gotF := UpsampleHoldFloatInto(make([]float64, len(xf)*hold), xf, sps)
		if len(gotF) != len(xf)*hold {
			t.Fatalf("sps %d: %d samples, want %d", sps, len(gotF), len(xf)*hold)
		}
		for i, v := range gotF {
			if v != xf[i/hold] {
				t.Fatalf("sps %d, sample %d: %v, want input sample %d = %v", sps, i, v, i/hold, xf[i/hold])
			}
		}
	}
}

func TestPoolRecycles(t *testing.T) {
	// sync.Pool may legitimately drop items (the race detector does so
	// randomly on purpose), so assert that recycling happens within a
	// few attempts rather than on the first.
	var p Pool
	c := p.GetComplex(128)
	if len(c) != 128 {
		t.Fatalf("GetComplex length %d", len(c))
	}
	recycled := false
	for i := 0; i < 100 && !recycled; i++ {
		p.PutComplex(c[:128])
		recycled = cap(p.GetComplex(64)) >= 128
	}
	if !recycled {
		t.Fatal("complex pool never recycled a 128-cap buffer")
	}
	f := p.GetFloat(256)
	recycled = false
	for i := 0; i < 100 && !recycled; i++ {
		p.PutFloat(f[:256])
		recycled = cap(p.GetFloat(100)) >= 256
	}
	if !recycled {
		t.Fatal("float pool never recycled a 256-cap buffer")
	}
}

func requireIdentical(t *testing.T, op string, n int, got, want []complex128) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s n=%d bin %d: planned %v direct %v", op, n, i, got[i], want[i])
		}
	}
}
