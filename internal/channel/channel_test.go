package channel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"multiscatter/internal/dsp"
)

func TestPathLossMonotone(t *testing.T) {
	m := NewLoS()
	prev := m.PathLossDB(0.5)
	for d := 1.0; d <= 50; d += 0.5 {
		cur := m.PathLossDB(d)
		if cur <= prev {
			t.Fatalf("path loss not monotone at %v m", d)
		}
		prev = cur
	}
}

func TestPathLossReference(t *testing.T) {
	m := NewLoS()
	// At 1 m the loss is the reference loss.
	if got := m.PathLossDB(1); math.Abs(got-40.05) > 1e-9 {
		t.Fatalf("PL(1m) = %v", got)
	}
	// Exponent 2: +20 dB per decade.
	if got := m.PathLossDB(10) - m.PathLossDB(1); math.Abs(got-20) > 1e-9 {
		t.Fatalf("decade slope = %v", got)
	}
	// Near-field clamp.
	if m.PathLossDB(0.01) != m.PathLossDB(0.1) {
		t.Fatal("near-field not clamped")
	}
}

func TestNLoSAddsWall(t *testing.T) {
	lo := NewLoS()
	nl := NewNLoS()
	d := 10.0
	if got := nl.PathLossDB(d) - lo.PathLossDB(d); math.Abs(got-Drywall.LossDB()) > 1e-9 {
		t.Fatalf("NLoS extra loss = %v, want drywall %v", got, Drywall.LossDB())
	}
}

func TestMaterialOrdering(t *testing.T) {
	if !(NoWall.LossDB() < Drywall.LossDB() &&
		Drywall.LossDB() < Wood.LossDB() &&
		Wood.LossDB() < Concrete.LossDB()) {
		t.Fatal("material losses not ordered")
	}
	for _, m := range []Material{NoWall, Drywall, Wood, Concrete, Material(9)} {
		if m.String() == "" {
			t.Fatal("empty material name")
		}
	}
}

func TestShadowing(t *testing.T) {
	m := &Model{RefLossDB: 40, Exponent: 2, ShadowSigmaDB: 4}
	rng := rand.New(rand.NewSource(1))
	// Shadowed losses vary; their std dev should be near 4 dB.
	var vals []float64
	for i := 0; i < 2000; i++ {
		vals = append(vals, m.ShadowedPathLossDB(10, rng))
	}
	sd := dsp.StdDevFloat(vals)
	if sd < 3.5 || sd > 4.5 {
		t.Fatalf("shadowing σ = %v, want ≈4", sd)
	}
	// PathLossDB itself is the deterministic mean, and a nil rng disables
	// shadowing even with σ set.
	if m.PathLossDB(10) != 60 || m.ShadowedPathLossDB(10, nil) != 60 {
		t.Fatal("mean path should be deterministic")
	}
	// A shadow-free model must not consume from the stream.
	flat := &Model{RefLossDB: 40, Exponent: 2}
	r1, r2 := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2))
	flat.ShadowedPathLossDB(5, r1)
	if r1.Int63() != r2.Int63() {
		t.Fatal("σ=0 draw perturbed the rng")
	}
}

func TestShadowingReplayable(t *testing.T) {
	// Two identically configured models fed identically seeded rngs must
	// produce identical shadowed loss sequences — the contract the fleet
	// replay harness rests on.
	a := &Model{RefLossDB: 40.05, Exponent: 2, ShadowSigmaDB: 6}
	b := &Model{RefLossDB: 40.05, Exponent: 2, ShadowSigmaDB: 6}
	ra, rb := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		d := 0.5 + float64(i)*0.1
		la, lb := a.ShadowedPathLossDB(d, ra), b.ShadowedPathLossDB(d, rb)
		if la != lb {
			t.Fatalf("sequence diverged at draw %d: %v != %v", i, la, lb)
		}
	}
	// The dyadic link draws forward then backward, deterministically.
	la, lb := NewBackscatterLink(a), NewBackscatterLink(b)
	for i := 0; i < 100; i++ {
		if la.ShadowDB(ra) != lb.ShadowDB(rb) {
			t.Fatalf("link shadow diverged at draw %d", i)
		}
	}
}

func TestBackscatterLinkBudget(t *testing.T) {
	l := NewBackscatterLink(NewLoS())
	// Paper setup: 30 dBm TX, tag 0.8 m away. RSSI at 28 m should land
	// near −85 dBm — the WiFi decode edge in Figure 13.
	rssi := l.RSSI(30, 0.8, 28)
	if rssi > -80 || rssi < -90 {
		t.Fatalf("RSSI(28 m) = %v dBm, want ≈ −85", rssi)
	}
	// Symmetry of the dyadic link.
	if got, want := l.RSSI(30, 2, 5), l.RSSI(30, 5, 2); math.Abs(got-want) > 1e-9 {
		t.Fatal("dyadic link should be symmetric in segment order")
	}
	// Tag input power: 30 dBm over 0.8 m ≈ −8.1 dBm (40.05 dB at 1 m,
	// −1.94 dB for the 0.8 m distance), comfortably above the −13 dBm
	// tag sensitivity.
	in := l.Forward.Received(30, 0.8)
	if in < -9 || in > -7 {
		t.Fatalf("tag input = %v dBm", in)
	}
}

func TestAWGNSetsSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 50000
	iq := make([]complex128, n)
	for i := range iq {
		iq[i] = 1 // unit-power signal
	}
	AWGN(iq, 10, rng)
	// Mean power should now be 1 + 0.1.
	if p := dsp.Power(iq); math.Abs(p-1.1) > 0.02 {
		t.Fatalf("power after AWGN = %v, want ≈1.1", p)
	}
	// Zero signal untouched.
	z := make([]complex128, 4)
	AWGN(z, 10, rng)
	for _, v := range z {
		if v != 0 {
			t.Fatal("zero-power signal should be unchanged")
		}
	}
}

func TestAWGNGlobalSource(t *testing.T) {
	iq := []complex128{1, 1, 1, 1}
	AWGN(iq, 20, nil) // must not panic with nil rng
	if dsp.Power(iq) == 1 {
		t.Fatal("noise not added")
	}
}

func TestPropertyReceivedDecreasesWithDistance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &Model{RefLossDB: 40, Exponent: 1.6 + rng.Float64()*2}
		d1 := 0.5 + rng.Float64()*10
		d2 := d1 + 0.5 + rng.Float64()*10
		return m.Received(20, d2) < m.Received(20, d1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMultipathUnitPower(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewIndoorMultipath(rng, 50e-9, 20e6)
	var p float64
	for _, tap := range m.Taps {
		p += real(tap)*real(tap) + imag(tap)*imag(tap)
	}
	if math.Abs(p-1) > 1e-9 {
		t.Fatalf("tap power = %v, want 1", p)
	}
	if len(m.Taps) < 2 {
		t.Fatal("indoor channel should have echoes")
	}
	// Degenerate parameters give a clean single-tap channel.
	flat := NewIndoorMultipath(rng, 0, 20e6)
	if len(flat.Taps) != 1 || flat.Taps[0] != 1 {
		t.Fatalf("flat channel = %v", flat.Taps)
	}
	// Nil rng must not panic.
	if NewIndoorMultipath(nil, 50e-9, 20e6) == nil {
		t.Fatal("nil rng")
	}
}

func TestMultipathApply(t *testing.T) {
	m := &Multipath{Taps: []complex128{1, 0.5}}
	in := []complex128{1, 0, 0, 0}
	out := m.Apply(in)
	if out[0] != 1 || out[1] != 0.5 || out[2] != 0 {
		t.Fatalf("impulse response = %v", out)
	}
	if len(out) != len(in) {
		t.Fatal("length changed")
	}
	// Empty taps copy the input.
	e := (&Multipath{}).Apply(in)
	if e[0] != 1 {
		t.Fatal("empty-channel copy wrong")
	}
}
