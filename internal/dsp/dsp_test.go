package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestEnergyAndPower(t *testing.T) {
	x := []complex128{1, 1i, -1, -1i}
	if got := Energy(x); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("Energy = %v, want 4", got)
	}
	if got := Power(x); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("Power = %v, want 1", got)
	}
	if Power(nil) != 0 {
		t.Fatal("Power(nil) should be 0")
	}
}

func TestDBConversionsRoundTrip(t *testing.T) {
	for db, want := range map[float64]float64{-30: 1e-3, -3: 0.501187233627272, 0: 1, 3: 1.99526231496888, 10: 10, 20: 100} {
		if got := FromDB10(db); !almostEqual(got, want, 1e-9*want) {
			t.Errorf("FromDB10(%v) = %v, want %v", db, got, want)
		}
	}
	if got := DBmToWatts(30); !almostEqual(got, 1, 1e-12) {
		t.Errorf("30 dBm = %v W, want 1", got)
	}
	if got := DBmToWatts(0); !almostEqual(got, 1e-3, 1e-15) {
		t.Errorf("0 dBm = %v W, want 1e-3", got)
	}
}

func TestRotateShiftsFrequency(t *testing.T) {
	const rate = 1000.0
	const n = 1024
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	Rotate(x, 100, rate, 0)
	// The rotated DC tone should now peak at bin 100/1000*1024 ≈ 102.
	spec := SpectrumPower(x)
	_, idx := MaxFloat(spec)
	wantBin := int(math.Round(100.0 / rate * float64(n)))
	if idx < wantBin-1 || idx > wantBin+1 {
		t.Fatalf("peak bin = %d, want ≈ %d", idx, wantBin)
	}
	// Amplitude must be preserved by the incremental rotator.
	for i, v := range x {
		if a := cmplx.Abs(v); !almostEqual(a, 1, 1e-9) {
			t.Fatalf("sample %d magnitude %v, want 1", i, a)
		}
	}
}

func TestFFTKnownValues(t *testing.T) {
	// FFT of an impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	FFT(x)
	for i, v := range x {
		if !almostEqual(real(v), 1, 1e-12) || !almostEqual(imag(v), 0, 1e-12) {
			t.Fatalf("FFT(impulse)[%d] = %v, want 1", i, v)
		}
	}
	// FFT of a single complex exponential concentrates in one bin.
	n := 64
	y := make([]complex128, n)
	for i := range y {
		th := 2 * math.Pi * 5 * float64(i) / float64(n)
		y[i] = complex(math.Cos(th), math.Sin(th))
	}
	FFT(y)
	for i, v := range y {
		mag := cmplx.Abs(v)
		if i == 5 {
			if !almostEqual(mag, float64(n), 1e-6) {
				t.Fatalf("bin 5 magnitude = %v, want %d", mag, n)
			}
		} else if mag > 1e-6 {
			t.Fatalf("bin %d magnitude = %v, want 0", i, mag)
		}
	}
}

func TestFFTIFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 8, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		orig := Clone(x)
		FFT(x)
		IFFT(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d sample %d: round trip %v != %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestFFTPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FFT of length 3 should panic")
		}
	}()
	FFT(make([]complex128, 3))
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestLowpassFilterAttenuates(t *testing.T) {
	const rate = 100.0
	f := NewLowpass(0.1, 61) // 10 Hz cutoff at 100 Hz rate
	n := 1024
	low := make([]float64, n)
	high := make([]float64, n)
	for i := range low {
		low[i] = math.Sin(2 * math.Pi * 2 * float64(i) / rate)   // 2 Hz: pass
		high[i] = math.Sin(2 * math.Pi * 40 * float64(i) / rate) // 40 Hz: stop
	}
	lo := f.ApplyFloat(low)
	hi := f.ApplyFloat(high)
	var pl, ph float64
	for i := 100; i < n-100; i++ { // skip edges
		pl += lo[i] * lo[i]
		ph += hi[i] * hi[i]
	}
	if ph >= pl/100 {
		t.Fatalf("stopband power %v not ≪ passband power %v", ph, pl)
	}
}

func TestGaussianTapsNormalized(t *testing.T) {
	taps := GaussianTaps(0.5, 8, 4)
	var sum float64
	peak := 0.0
	for _, v := range taps {
		sum += v
		if v > peak {
			peak = v
		}
	}
	if !almostEqual(sum, 1, 1e-9) {
		t.Fatalf("tap sum = %v, want 1", sum)
	}
	// The peak must be at the center tap.
	if taps[(len(taps)-1)/2] != peak {
		t.Fatal("peak not at center")
	}
}

func TestHalfSineTaps(t *testing.T) {
	taps := HalfSineTaps(8)
	if len(taps) != 8 {
		t.Fatalf("len = %d", len(taps))
	}
	if taps[0] != 0 {
		t.Fatalf("taps[0] = %v, want 0", taps[0])
	}
	if !almostEqual(taps[4], 1, 1e-12) {
		t.Fatalf("taps[mid] = %v, want 1", taps[4])
	}
}

func TestNormCorrFloat(t *testing.T) {
	a := []float64{1, 2, 3}
	if got := NormCorrFloat(a, a); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("self correlation = %v, want 1", got)
	}
	b := []float64{-1, -2, -3}
	if got := NormCorrFloat(a, b); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("anti correlation = %v, want -1", got)
	}
	if got := NormCorrFloat(a, []float64{0, 0, 0}); got != 0 {
		t.Fatalf("zero-energy correlation = %v, want 0", got)
	}
}

func TestSignCorr(t *testing.T) {
	a := []int8{1, -1, 1, -1}
	if got := SignCorr(a, a); got != 1 {
		t.Fatalf("self SignCorr = %v", got)
	}
	b := []int8{-1, 1, -1, 1}
	if got := SignCorr(a, b); got != -1 {
		t.Fatalf("anti SignCorr = %v", got)
	}
	c := []int8{1, 1, 1, 1}
	if got := SignCorr(a, c); got != 0 {
		t.Fatalf("orthogonal SignCorr = %v", got)
	}
}

func TestSlidingNormCorrFindsTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tpl := make([]float64, 32)
	for i := range tpl {
		tpl[i] = rng.NormFloat64()
	}
	x := make([]float64, 256)
	for i := range x {
		x[i] = 0.1 * rng.NormFloat64()
	}
	const at = 100
	copy(x[at:], tpl)
	scores := SlidingNormCorrInto(make([]float64, len(x)-len(tpl)+1), x, tpl)
	_, idx := MaxFloat(scores)
	if idx != at {
		t.Fatalf("template found at %d, want %d", idx, at)
	}
}

// resampleLinear resamples a stored slice through ResampleLinearAt.
func resampleLinear(x []float64, rateIn, rateOut float64) []float64 {
	return ResampleLinearAt(len(x), rateIn, rateOut, func(j int) float64 { return x[j] })
}

func TestResampleLinear(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	up := resampleLinear(x, 1, 2)
	if len(up) != 8 {
		t.Fatalf("upsample len = %d, want 8", len(up))
	}
	if !almostEqual(up[1], 0.5, 1e-12) {
		t.Fatalf("up[1] = %v, want 0.5", up[1])
	}
	same := resampleLinear(x, 5, 5)
	for i := range x {
		if same[i] != x[i] {
			t.Fatal("same-rate resample must copy")
		}
	}
	if resampleLinear(nil, 1, 2) != nil {
		t.Fatal("nil input should return nil")
	}
}

func TestQFunction(t *testing.T) {
	if got := Q(0); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("Q(0) = %v", got)
	}
	// Standard value Q(1.0) ≈ 0.1587.
	if got := Q(1); !almostEqual(got, 0.158655, 1e-5) {
		t.Fatalf("Q(1) = %v", got)
	}
}

func TestBERCurvesMonotone(t *testing.T) {
	curves := map[string]func(float64) float64{
		"BPSK":  BERBPSK,
		"DBPSK": BERDBPSK,
		"FSK":   BERFSK,
		"OQPSK": BEROQPSKDSSS,
	}
	for name, f := range curves {
		prev := f(FromDB10(-5))
		if prev > 0.5 || prev <= 0 {
			t.Errorf("%s at -5 dB = %v out of range", name, prev)
		}
		for db := -4.0; db <= 20; db++ {
			cur := f(FromDB10(db))
			if cur > prev+1e-12 {
				t.Errorf("%s not monotone at %v dB: %v > %v", name, db, cur, prev)
			}
			prev = cur
		}
		if f(0) != 0.5 {
			t.Errorf("%s at zero SNR = %v, want 0.5", name, f(0))
		}
	}
	// At 10 dB, BPSK must beat noncoherent FSK.
	e := FromDB10(10)
	if !(BERBPSK(e) < BERFSK(e)) {
		t.Error("BPSK should outperform noncoherent FSK")
	}
}

func TestBERRepetition(t *testing.T) {
	// Majority vote over 3 reps of p=0.1: 3p²(1-p)+p³ = 0.028.
	if got := BERRepetition(0.1, 3); !almostEqual(got, 0.028, 1e-9) {
		t.Fatalf("rep-3 = %v, want 0.028", got)
	}
	if got := BERRepetition(0.2, 1); got != 0.2 {
		t.Fatalf("rep-1 must be identity, got %v", got)
	}
	if got := BERRepetition(0, 5); got != 0 {
		t.Fatalf("p=0 must stay 0, got %v", got)
	}
	if got := BERRepetition(1, 5); got != 1 {
		t.Fatalf("p=1 must stay 1, got %v", got)
	}
	// Even vote: ties counted half. n=2, p=0.5 -> 0.5.
	if got := BERRepetition(0.5, 2); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("n=2 p=0.5 = %v, want 0.5", got)
	}
}

func TestPacketErrorRate(t *testing.T) {
	if got := PacketErrorRate(0, 100); got != 0 {
		t.Fatalf("PER(0) = %v", got)
	}
	if got := PacketErrorRate(1, 100); got != 1 {
		t.Fatalf("PER(1) = %v", got)
	}
	got := PacketErrorRate(0.01, 100)
	want := 1 - math.Pow(0.99, 100)
	if !almostEqual(got, want, 1e-12) {
		t.Fatalf("PER = %v, want %v", got, want)
	}
}

func TestPropertyRepetitionImproves(t *testing.T) {
	// For p < 0.5, majority voting over a larger odd n never hurts.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rng.Float64() * 0.49
		prev := BERRepetition(p, 1)
		for _, n := range []int{3, 5, 7, 9} {
			cur := BERRepetition(p, n)
			if cur > prev+1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFFTParseval(t *testing.T) {
	// Energy is preserved by the FFT up to the 1/N convention.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		eTime := Energy(x)
		FFT(x)
		eFreq := Energy(x) / float64(n)
		return math.Abs(eTime-eFreq) < 1e-6*eTime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyNormCorrBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, 50)
		b := make([]float64, 50)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		c := NormCorrFloat(a, b)
		return c >= -1-1e-12 && c <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveDCAndNormalize(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	RemoveDC(x)
	if m := MeanFloat(x); !almostEqual(m, 0, 1e-12) {
		t.Fatalf("mean after RemoveDC = %v", m)
	}
}

func TestUpsampleHold(t *testing.T) {
	gotF := UpsampleHoldFloatInto(make([]float64, 2), []float64{5}, 2)
	if len(gotF) != 2 || gotF[0] != 5 || gotF[1] != 5 {
		t.Fatalf("UpsampleHoldFloatInto = %v", gotF)
	}
}

func TestEnvelopeAndPeak(t *testing.T) {
	x := []complex128{3 + 4i, 1}
	env := Envelope(x)
	if !almostEqual(env[0], 5, 1e-12) || !almostEqual(env[1], 1, 1e-12) {
		t.Fatalf("Envelope = %v", env)
	}
}

func TestMeanAndStdDev(t *testing.T) {
	if s := StdDevFloat([]float64{2, 2, 2}); s != 0 {
		t.Fatalf("StdDev of constant = %v", s)
	}
	if s := StdDevFloat([]float64{-1, 1}); !almostEqual(s, 1, 1e-12) {
		t.Fatalf("StdDev = %v", s)
	}
}

func TestCrossCorrPeakFindsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ref := make([]complex128, 64)
	for i := range ref {
		ref[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	x := make([]complex128, 512)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 0.05
	}
	const at = 201
	for i, v := range ref {
		x[at+i] += v
	}
	off, score := CrossCorrPeak(x, ref, 0)
	if off != at {
		t.Fatalf("peak at %d, want %d", off, at)
	}
	if score < 0.9 {
		t.Fatalf("score = %v", score)
	}
	// A phase-rotated copy must still be found (non-coherent detection).
	y := Clone(x)
	Scale(y, complex(math.Cos(1.2), math.Sin(1.2)))
	off, _ = CrossCorrPeak(y, ref, 0)
	if off != at {
		t.Fatalf("rotated peak at %d, want %d", off, at)
	}
	// Degenerate inputs.
	if off, _ := CrossCorrPeak(nil, ref, 0); off != -1 {
		t.Fatal("nil input")
	}
	if off, _ := CrossCorrPeak(ref, nil, 0); off != -1 {
		t.Fatal("nil reference")
	}
	if off, _ := CrossCorrPeak(x, make([]complex128, 8), 0); off != -1 {
		t.Fatal("zero-energy reference")
	}
	// maxOffset bounds the search.
	if off, _ := CrossCorrPeak(x, ref, 50); off > 50 {
		t.Fatalf("bounded search returned %d", off)
	}
}

func TestAutoCorrPlateau(t *testing.T) {
	// A 16-periodic signal raises the plateau at its start.
	x := make([]complex128, 600)
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 200; i++ {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 0.4
	}
	period := make([]complex128, 16)
	for i := range period {
		period[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for i := 200; i < 460; i++ {
		x[i] = period[(i-200)%16]
	}
	for i := 460; i < 600; i++ {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 0.4
	}
	got := AutoCorrPlateau(x, 16, 64, 0.9, 8)
	if got < 190 || got > 210 {
		t.Fatalf("plateau at %d, want ≈200", got)
	}
	// No plateau in pure noise.
	noise := make([]complex128, 400)
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	if got := AutoCorrPlateau(noise, 16, 64, 0.9, 8); got != -1 {
		t.Fatalf("noise plateau at %d", got)
	}
	// Degenerate parameters.
	if got := AutoCorrPlateau(noise, 0, 64, 0.9, 8); got != -1 {
		t.Fatal("zero lag")
	}
	if got := AutoCorrPlateau(noise[:10], 16, 64, 0.9, 8); got != -1 {
		t.Fatal("short input")
	}
}

func TestFIRApplyComplexMatchesFloat(t *testing.T) {
	f := NewLowpass(0.2, 21)
	x := make([]float64, 100)
	for i := range x {
		x[i] = math.Sin(float64(i) / 3)
	}
	cx := make([]complex128, len(x))
	for i := range x {
		cx[i] = complex(x[i], 0)
	}
	a := f.ApplyFloat(x)
	b := f.ApplyInto(make([]complex128, len(cx)), cx)
	for i := range a {
		if math.Abs(a[i]-real(b[i])) > 1e-12 || math.Abs(imag(b[i])) > 1e-12 {
			t.Fatalf("complex/real filter mismatch at %d", i)
		}
	}
}

// TestResampleLinearAtMatchesLegacy pins ResampleLinearAt, read through
// its accessor, to the direct loop it replaced, at the front end's down-
// and upsampling ratios.
func TestResampleLinearAtMatchesLegacy(t *testing.T) {
	legacy := func(x []float64, rateIn, rateOut float64) []float64 {
		if len(x) == 0 || rateIn <= 0 || rateOut <= 0 {
			return nil
		}
		if rateIn == rateOut {
			return CloneFloat(x)
		}
		n := int(float64(len(x)) * rateOut / rateIn)
		if n < 1 {
			n = 1
		}
		out := make([]float64, n)
		step := rateIn / rateOut
		for i := range out {
			pos := float64(i) * step
			j := int(pos)
			if j >= len(x)-1 {
				out[i] = x[len(x)-1]
				continue
			}
			frac := pos - float64(j)
			out[i] = x[j]*(1-frac) + x[j+1]*frac
		}
		return out
	}
	rates := [][2]float64{{20e6, 2.5e6}, {11e6, 4e6}, {22e6, 20e6}, {8e6, 20e6}, {2e6, 25e6}, {5, 5}, {1e6, 1e3}}
	for _, n := range []int{0, 1, 2, 7, 1000} {
		x := make([]float64, n)
		for i, v := range randomIQ(n, int64(n)) {
			x[i] = real(v)
		}
		for _, r := range rates {
			got, want := resampleLinear(x, r[0], r[1]), legacy(x, r[0], r[1])
			if len(got) != len(want) {
				t.Fatalf("n=%d %g→%g: %d samples, want %d", n, r[0], r[1], len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d %g→%g sample %d: %v, want %v", n, r[0], r[1], i, got[i], want[i])
				}
			}
		}
	}
}

func TestSpectrumPowerPads(t *testing.T) {
	// Non-power-of-two input is zero-padded, not panicking.
	x := make([]complex128, 100)
	x[0] = 1
	spec := SpectrumPower(x)
	if len(spec) != 128 {
		t.Fatalf("padded length = %d", len(spec))
	}
}
