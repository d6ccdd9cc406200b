// Package channel models RF propagation for the multiscatter experiments:
// log-distance path loss at 2.4 GHz, wall occlusion, log-normal shadowing,
// additive white Gaussian noise, and the dyadic (two-segment) backscatter
// link budget. Distances are metres, powers dBm, losses dB.
package channel

import (
	"math"
	"math/rand"

	"multiscatter/internal/dsp"
)

// Material identifies an occluding wall type from the paper's occlusion
// experiments (Figures 9 and 15).
type Material int

const (
	// NoWall means a clear path.
	NoWall Material = iota
	// Drywall is the thin drywall of Figure 15.
	Drywall
	// Wood is the wooden wall of Figure 9a.
	Wood
	// Concrete is the concrete wall of Figure 9a.
	Concrete
)

// LossDB returns the one-pass attenuation of the material at 2.4 GHz.
// Values follow common indoor propagation surveys.
func (m Material) LossDB() float64 {
	switch m {
	case Drywall:
		return 2.5
	case Wood:
		return 6
	case Concrete:
		return 13
	default:
		return 0
	}
}

// String names the material.
func (m Material) String() string {
	switch m {
	case NoWall:
		return "none"
	case Drywall:
		return "drywall"
	case Wood:
		return "wood"
	case Concrete:
		return "concrete"
	default:
		return "material?"
	}
}

// Model is a log-distance path-loss channel. It holds no RNG state:
// PathLossDB is the deterministic mean loss, and shadowing draws are made
// explicitly through ShadowDB / ShadowedPathLossDB with a caller-supplied
// RNG, so concurrent consumers (fleet shards, link-table sites) can each hold
// an independent, replayable stream instead of racing on shared state.
type Model struct {
	// RefLossDB is the path loss at 1 m. Free space at 2.4 GHz is
	// 20·log10(4π·1m/λ) ≈ 40.05 dB.
	RefLossDB float64
	// Exponent is the distance exponent (2.0 free space / hallway LoS).
	Exponent float64
	// Wall occludes the path once.
	Wall Material
	// ShadowSigmaDB is the standard deviation of log-normal shadowing;
	// zero disables it.
	ShadowSigmaDB float64
}

// NewLoS returns the line-of-sight hallway channel of Figure 13.
func NewLoS() *Model {
	return &Model{RefLossDB: 40.05, Exponent: 2.0}
}

// NewNLoS returns the non-line-of-sight office channel of Figure 14: the
// LoS model plus one drywall in the path.
func NewNLoS() *Model {
	return &Model{RefLossDB: 40.05, Exponent: 2.0, Wall: Drywall}
}

// PathLossDB returns the mean (unshadowed) path loss over distance d in
// metres. Distances below 0.1 m are clamped to avoid near-field
// singularities.
func (m *Model) PathLossDB(d float64) float64 {
	if d < 0.1 {
		d = 0.1
	}
	return m.RefLossDB + 10*m.Exponent*math.Log10(d) + m.Wall.LossDB()
}

// ShadowDB draws one log-normal shadowing sample (extra loss in dB, may
// be negative) from rng. It returns 0 — and consumes nothing from rng —
// when shadowing is disabled (ShadowSigmaDB ≤ 0) or rng is nil, so
// shadow-free models never perturb a shared stream.
func (m *Model) ShadowDB(rng *rand.Rand) float64 {
	if m.ShadowSigmaDB <= 0 || rng == nil {
		return 0
	}
	return rng.NormFloat64() * m.ShadowSigmaDB
}

// ShadowedPathLossDB returns the path loss over distance d with one
// shadowing sample drawn from rng added.
func (m *Model) ShadowedPathLossDB(d float64, rng *rand.Rand) float64 {
	return m.PathLossDB(d) + m.ShadowDB(rng)
}

// Received returns the received power in dBm for a transmit power txDBm
// over distance d.
func (m *Model) Received(txDBm, d float64) float64 {
	return txDBm - m.PathLossDB(d)
}

// BackscatterLink is the dyadic excitation→tag→receiver link.
type BackscatterLink struct {
	// Forward is the excitation→tag channel.
	Forward *Model
	// Backward is the tag→receiver channel.
	Backward *Model
	// TagLossDB is the backscatter conversion loss at the tag: antenna
	// re-radiation efficiency plus modulation loss (single-sideband
	// square-wave mixing alone costs ≈ 3.9 dB; total is typically 6–10).
	TagLossDB float64
}

// NewBackscatterLink returns a link with both segments using the given
// channel model and the paper-calibrated 8 dB tag conversion loss.
func NewBackscatterLink(m *Model) *BackscatterLink {
	return &BackscatterLink{Forward: m, Backward: m, TagLossDB: 8}
}

// RSSI returns the mean backscatter signal strength at the receiver for
// an excitation of txDBm, tag at dFwd metres from the exciter and
// receiver at dBack metres from the tag.
func (l *BackscatterLink) RSSI(txDBm, dFwd, dBack float64) float64 {
	return txDBm - l.Forward.PathLossDB(dFwd) - l.TagLossDB - l.Backward.PathLossDB(dBack)
}

// ShadowDB draws the link's total shadowing loss: one independent sample
// per segment (forward then backward), in that fixed order, so a given
// rng state always yields the same draw.
func (l *BackscatterLink) ShadowDB(rng *rand.Rand) float64 {
	return l.Forward.ShadowDB(rng) + l.Backward.ShadowDB(rng)
}

// TagInputDBm returns the excitation power arriving at the tag — the
// quantity the rectifier and energy harvester see.
func (l *BackscatterLink) TagInputDBm(txDBm, dFwd float64) float64 {
	return txDBm - l.Forward.PathLossDB(dFwd)
}

// NoiseFloorDBm returns the thermal noise floor for a receiver of the
// given bandwidth (Hz) and noise figure (dB): −174 dBm/Hz + 10·log10(BW)
// + NF.
func NoiseFloorDBm(bandwidthHz, noiseFigureDB float64) float64 {
	return -174 + 10*math.Log10(bandwidthHz) + noiseFigureDB
}

// AWGN adds complex white Gaussian noise to iq in place so the resulting
// per-sample SNR is snrDB relative to the signal's current mean power.
// It returns iq. A nil rng uses math/rand's global source; pass a seeded
// rng for reproducibility.
func AWGN(iq []complex128, snrDB float64, rng *rand.Rand) []complex128 {
	p := dsp.Power(iq)
	if p <= 0 {
		return iq
	}
	noiseP := p / dsp.FromDB10(snrDB)
	sigma := math.Sqrt(noiseP / 2)
	if rng == nil {
		for i := range iq {
			iq[i] += complex(rand.NormFloat64()*sigma, rand.NormFloat64()*sigma)
		}
		return iq
	}
	for i := range iq {
		iq[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	return iq
}

// ScaleToPower scales iq in place so its mean power corresponds to the
// given received power in dBm (1 mW ↔ unit mean power under the
// simulator's normalized impedance convention).
func ScaleToPower(iq []complex128, dbm float64) []complex128 {
	return dsp.NormalizePower(iq, dsp.DBmToWatts(dbm)*1e3)
}
