package channel

import (
	"math"
	"math/rand"
	"time"
)

// CarrierHz is the nominal excitation carrier frequency the complex
// channel model evaluates geometric phase at (2.44 GHz, the centre of
// the 2.4 GHz ISM band all four excitation protocols share).
const CarrierHz = 2.44e9

// speedOfLight in m/s, for the carrier wavelength.
const speedOfLight = 299792458.0

// Coeff is one link's complex channel coefficient H = |h|·e^{jφ},
// stored in the (GainDB, PhaseRad) domain so the magnitude projection
// is exactly the legacy dB arithmetic: GainDB is the negated path loss
// the magnitude-only model computes, and dropping PhaseRad recovers it
// untouched. Every pre-phase caller (RSSI tables, PER chains, range
// sweeps) therefore keeps its byte-identical numbers by construction —
// the backward-compat contract documented in docs/CHANNELS.md.
type Coeff struct {
	// GainDB is 20·log10|H|: negative for a lossy link.
	GainDB float64
	// PhaseRad is arg(H), wrapped to (-π, π].
	PhaseRad float64
}

// H returns the coefficient as a complex number.
func (c Coeff) H() complex128 {
	mag := math.Pow(10, c.GainDB/20)
	s, cos := math.Sincos(c.PhaseRad)
	return complex(mag*cos, mag*s)
}

// Magnitude returns |H| (linear amplitude).
func (c Coeff) Magnitude() float64 { return math.Pow(10, c.GainDB/20) }

// Cascade composes two channel segments traversed in sequence: gains
// add in dB, phases add modulo 2π — the dyadic backscatter budget in
// the complex domain.
func (c Coeff) Cascade(o Coeff) Coeff {
	return Coeff{GainDB: c.GainDB + o.GainDB, PhaseRad: WrapPhase(c.PhaseRad + o.PhaseRad)}
}

// Rotated returns the coefficient with an extra phase offset applied —
// the per-packet residual rotation a PhaseDrift accumulates.
func (c Coeff) Rotated(phaseRad float64) Coeff {
	return Coeff{GainDB: c.GainDB, PhaseRad: WrapPhase(c.PhaseRad + phaseRad)}
}

// WrapPhase wraps an angle to (-π, π].
func WrapPhase(rad float64) float64 {
	rad = math.Mod(rad, 2*math.Pi)
	if rad <= -math.Pi {
		rad += 2 * math.Pi
	} else if rad > math.Pi {
		rad -= 2 * math.Pi
	}
	return rad
}

// Coeff returns the complex coefficient of a one-way path over distance
// d: magnitude from the model's mean path loss (GainDB = −PathLossDB),
// phase from the geometric delay at the carrier wavelength (−2πd/λ).
// Shadowing is not included — fold a ShadowDB draw into GainDB exactly
// as the magnitude model folds it into the loss.
func (m *Model) Coeff(d float64) Coeff {
	lambda := speedOfLight / CarrierHz
	return Coeff{
		GainDB:   -m.PathLossDB(d),
		PhaseRad: WrapPhase(-2 * math.Pi * d / lambda),
	}
}

// Coeff returns the dyadic link's complex coefficient: the forward and
// backward segment coefficients cascaded with the tag's conversion loss
// (conversion is modelled phase-neutral; a tag-side phase offset rides
// in PhaseDrift instead). txDBm + Coeff().GainDB equals the legacy RSSI
// up to floating-point association — the legacy RSSI method itself is
// untouched and remains the working-point surface.
func (l *BackscatterLink) Coeff(dFwd, dBack float64) Coeff {
	fwd := l.Forward.Coeff(dFwd)
	back := l.Backward.Coeff(dBack)
	return fwd.Cascade(Coeff{GainDB: -l.TagLossDB}).Cascade(back)
}

// PhaseDrift models the residual phase trajectory of one link: the
// initial phase offset φ₀ (carrier phase at t = 0, unknowable a priori
// at the receiver) plus a constant residual drift rate from oscillator
// offset between exciter and receiver. φ(t) = φ₀ + 2π·RateHz·t. It is a
// pure function of time — no internal state — so evaluating it from any
// goroutine or in any order is deterministic.
type PhaseDrift struct {
	// Phi0Rad is the initial phase in (-π, π].
	Phi0Rad float64
	// RateHz is the residual drift rate in Hz (signed; cycles per
	// second of sim time).
	RateHz float64
}

// NewPhaseDrift draws one link's phase trajectory from rng: φ₀ uniform
// over [0, 2π), then the rate uniform over [−maxHz, maxHz]. It always
// consumes exactly two draws (even at maxHz = 0), so a stream shared
// with later consumers never shifts when the drift bound changes.
func NewPhaseDrift(rng *rand.Rand, maxHz float64) PhaseDrift {
	phi := WrapPhase(rng.Float64() * 2 * math.Pi)
	rate := (2*rng.Float64() - 1) * maxHz
	return PhaseDrift{Phi0Rad: phi, RateHz: rate}
}

// At returns the wrapped phase at sim time t.
func (p PhaseDrift) At(t time.Duration) float64 {
	return WrapPhase(p.Phi0Rad + 2*math.Pi*p.RateHz*t.Seconds())
}

// Apply rotates a static link coefficient to its value at sim time t.
func (p PhaseDrift) Apply(c Coeff, t time.Duration) Coeff {
	return c.Rotated(p.At(t))
}
