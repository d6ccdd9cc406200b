package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"time"
)

// TestCoeffMagnitudeProjection pins the backward-compat contract of
// docs/CHANNELS.md: the complex coefficient's GainDB is the same dB
// arithmetic the legacy magnitude surface computes, so dropping the
// phase recovers PathLossDB/RSSI (to floating-point association).
func TestCoeffMagnitudeProjection(t *testing.T) {
	m := NewLoS()
	for _, d := range []float64{0.05, 0.5, 1, 4, 17.3, 30} {
		c := m.Coeff(d)
		if got, want := c.GainDB, -m.PathLossDB(d); got != want {
			t.Errorf("Coeff(%g).GainDB = %v, want -PathLossDB = %v", d, got, want)
		}
	}
	l := NewBackscatterLink(NewNLoS())
	for _, dd := range [][2]float64{{0.8, 2}, {0.8, 10}, {1.5, 25}} {
		c := l.Coeff(dd[0], dd[1])
		legacy := l.RSSI(30, dd[0], dd[1])
		if got := 30 + c.GainDB; math.Abs(got-legacy) > 1e-9 {
			t.Errorf("30dBm + Coeff(%v).GainDB = %v, legacy RSSI %v", dd, got, legacy)
		}
	}
}

func TestCoeffComplexDomain(t *testing.T) {
	c := Coeff{GainDB: -20, PhaseRad: math.Pi / 2}
	h := c.H()
	if got := cmplx.Abs(h); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("|H| = %v, want 0.1", got)
	}
	if got := cmplx.Phase(h); math.Abs(got-math.Pi/2) > 1e-12 {
		t.Errorf("arg H = %v, want π/2", got)
	}
	sum := c.Cascade(Coeff{GainDB: -10, PhaseRad: math.Pi})
	if sum.GainDB != -30 {
		t.Errorf("cascade gain = %v, want -30", sum.GainDB)
	}
	if got, want := sum.PhaseRad, WrapPhase(3*math.Pi/2); math.Abs(got-want) > 1e-12 {
		t.Errorf("cascade phase = %v, want %v", got, want)
	}
}

func TestWrapPhase(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-math.Pi / 2, -math.Pi / 2},
	} {
		if got := WrapPhase(tc.in); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("WrapPhase(%v) = %v, want %v", tc.in, got, tc.want)
		}
		if got := WrapPhase(tc.in); got <= -math.Pi || got > math.Pi {
			t.Errorf("WrapPhase(%v) = %v out of (-π, π]", tc.in, got)
		}
	}
}

// TestPhaseDriftDeterministic pins the two-draw RNG contract: the same
// seeded stream yields the same trajectory, and maxHz = 0 still
// consumes both draws so downstream consumers of a shared stream never
// shift when the drift bound changes.
func TestPhaseDriftDeterministic(t *testing.T) {
	a := NewPhaseDrift(rand.New(rand.NewSource(7)), 200)
	b := NewPhaseDrift(rand.New(rand.NewSource(7)), 200)
	if a != b {
		t.Fatalf("same seed, different drift: %+v vs %+v", a, b)
	}
	if math.Abs(a.RateHz) > 200 {
		t.Errorf("rate %v out of ±200 Hz", a.RateHz)
	}

	r1 := rand.New(rand.NewSource(11))
	NewPhaseDrift(r1, 0)
	r2 := rand.New(rand.NewSource(11))
	NewPhaseDrift(r2, 150)
	if g1, g2 := r1.Float64(), r2.Float64(); g1 != g2 {
		t.Errorf("draw count depends on maxHz: next draws %v vs %v", g1, g2)
	}

	d := PhaseDrift{Phi0Rad: 1, RateHz: 100}
	if got := d.At(0); got != 1 {
		t.Errorf("At(0) = %v, want φ₀", got)
	}
	want := WrapPhase(1 + 2*math.Pi*100*0.005)
	if got := d.At(5 * time.Millisecond); math.Abs(got-want) > 1e-12 {
		t.Errorf("At(5ms) = %v, want %v", got, want)
	}
}
