package baseline

import (
	"fmt"
	"math"
	"math/cmplx"
	"time"

	"multiscatter/internal/channel"
	"multiscatter/internal/dsp"
	"multiscatter/internal/overlay"
	"multiscatter/internal/radio"
)

// Double-decker (arXiv 2408.16280) recovers the tag layer from the
// SUPERPOSED excitation+backscatter stream at one commodity receiver:
// pilot groups (tag silent) estimate the direct coefficient H_d, a
// known training group estimates the backscatter coefficient H_b, and
// each data group's tag bit is sliced coherently against H_b. The
// price of single-receiver decoding is symbol efficiency — every tag
// bit is spread over DoubleDeckerSpread γ-symbol groups so the two
// superposed layers stay separable, and DoubleDeckerPilotFraction of
// the payload carries pilots instead of data. The payoff is
// original-channel immunity: there is no second receiver whose link a
// wall can occlude, so throughput is flat across Figure 15's
// occlusion sweep.

const (
	// DoubleDeckerSpread is the number of γ-symbol groups one tag bit
	// spans: the tag halves its rate so the receiver can separate the
	// superposed layers with a per-group estimate.
	DoubleDeckerSpread = 2
	// DoubleDeckerPilotFraction is the fraction of payload groups spent
	// on silent-tag pilots for H_d re-estimation under drift.
	DoubleDeckerPilotFraction = 0.1
)

// DoubleDeckerConfig describes a single-receiver superposition-decoding
// experiment point. The zero value selects the paper-calibrated
// defaults used by the Figure 15 comparison.
type DoubleDeckerConfig struct {
	// OriginalSNRdB is the excitation-to-receiver SNR (default 8 dB,
	// the same working point DecodeConfig uses for Figure 15).
	OriginalSNRdB float64
	// DirectToBackscatterDB is how far the direct excitation path sits
	// above the backscatter reflection at the receiver (default 25 dB —
	// the dyadic loss of a sub-metre tag at a 4 m receiver).
	DirectToBackscatterDB float64
	// CancellationDB is how much of the direct path the pilot-estimated
	// H_d removes before tag slicing (default 30 dB).
	CancellationDB float64
	// DriftHz is the residual phase drift between pilot re-estimations
	// (default 100 Hz).
	DriftHz float64
	// EstimateHorizon is how long one pilot estimate must stay coherent
	// (default 1 ms, roughly half an 802.11b frame).
	EstimateHorizon time.Duration
}

// WithDefaults returns the config with zero fields filled with the
// Figure 15 working point — the exact parameters the model functions
// below evaluate a zero-value config at.
func (cfg DoubleDeckerConfig) WithDefaults() DoubleDeckerConfig { return cfg.withDefaults() }

// withDefaults fills zero fields with the Figure 15 working point.
func (cfg DoubleDeckerConfig) withDefaults() DoubleDeckerConfig {
	if cfg.OriginalSNRdB == 0 {
		cfg.OriginalSNRdB = 8
	}
	if cfg.DirectToBackscatterDB == 0 {
		cfg.DirectToBackscatterDB = 25
	}
	if cfg.CancellationDB == 0 {
		cfg.CancellationDB = 30
	}
	if cfg.DriftHz == 0 {
		cfg.DriftHz = 100
	}
	if cfg.EstimateHorizon == 0 {
		cfg.EstimateHorizon = time.Millisecond
	}
	return cfg
}

// DoubleDeckerSINRdB returns the post-cancellation tag-layer SINR: the
// backscatter layer competes with thermal noise AND the residual direct
// path that survives H_d cancellation (DirectToBackscatterDB −
// CancellationDB), minus the estimator's drift-tracking penalty over
// the estimate horizon.
func DoubleDeckerSINRdB(cfg DoubleDeckerConfig) float64 {
	cfg = cfg.withDefaults()
	snr := dsp.FromDB10(cfg.OriginalSNRdB)
	leak := dsp.FromDB10(cfg.DirectToBackscatterDB - cfg.CancellationDB)
	sinr := 1 / (1/snr + leak)
	pen := channel.Estimator{}.TrackingPenaltyDB(cfg.DriftHz, cfg.EstimateHorizon)
	return 10*math.Log10(sinr) - pen
}

// DoubleDeckerLeakPenaltyDB returns the SNR cost of the residual direct
// path alone — the dB gap between OriginalSNRdB and the
// post-cancellation SINR at zero drift. Consumers that track drift
// themselves (the fleet's phase-aware link table) add this on top of
// their own tracking penalty without double-counting the drift term.
func DoubleDeckerLeakPenaltyDB(cfg DoubleDeckerConfig) float64 {
	cfg = cfg.withDefaults()
	snr := dsp.FromDB10(cfg.OriginalSNRdB)
	leak := dsp.FromDB10(cfg.DirectToBackscatterDB - cfg.CancellationDB)
	sinr := 1 / (1/snr + leak)
	return cfg.OriginalSNRdB - 10*math.Log10(sinr)
}

// DoubleDeckerTagBER returns the tag-layer BER after coherent
// despreading: each bit integrates γ·spread symbols against the
// estimated H_b, through the DBPSK curve.
func DoubleDeckerTagBER(cfg DoubleDeckerConfig, proto radio.Protocol) float64 {
	g := overlay.Gammas[proto]
	if g == 0 {
		return 0.5
	}
	sinr := dsp.FromDB10(DoubleDeckerSINRdB(cfg))
	return dsp.BERDBPSK(sinr * float64(g*DoubleDeckerSpread))
}

// DoubleDeckerThroughputKbps returns the single-receiver tag throughput
// under the given carrier traffic: PayloadSymbols/(γ·spread) bits per
// packet, less the pilot fraction, at the carrier's packet rate.
// Crucially there is NO usableFraction term — no original receiver
// exists to occlude, so walls between exciter and a second radio cost
// nothing (the Figure 15 contrast with Hitchhike/FreeRider).
func DoubleDeckerThroughputKbps(cfg DoubleDeckerConfig, tr overlay.Traffic, proto radio.Protocol) float64 {
	g := overlay.Gammas[proto]
	if g == 0 || tr.PayloadSymbols <= 0 {
		return 0
	}
	tagBits := float64(tr.PayloadSymbols/(g*DoubleDeckerSpread)) * (1 - DoubleDeckerPilotFraction)
	rate := tr.PacketRate(proto)
	ber := DoubleDeckerTagBER(cfg, proto)
	return tagBits * rate * (1 - ber) / 1e3
}

// DecodeSuperposedTag decodes tag bits from a superposed
// excitation+backscatter stream rx against the clean excitation
// reference ref, in groups of groupLen samples:
//
//   - the first pilotGroups groups carry no backscatter (tag silent);
//     their averaged LS estimate is the direct coefficient H_d;
//   - the next group carries a known +1 training bit; its estimate
//     minus H_d is the backscatter coefficient H_b;
//   - every remaining group carries one data bit, sliced from the sign
//     of Re[(Ĥ_g − H_d)·conj(H_b)].
//
// It returns one byte (0 or 1) per data group. This is the
// waveform-domain counterpart of the analytic DoubleDeckerTagBER model,
// exercised by core.RunDoubleDeckerDecode.
func DecodeSuperposedTag(rx, ref []complex128, groupLen, pilotGroups int) ([]byte, error) {
	if groupLen <= 0 || pilotGroups <= 0 {
		return nil, fmt.Errorf("baseline: groupLen %d and pilotGroups %d must be positive", groupLen, pilotGroups)
	}
	groups := len(rx) / groupLen
	if r := len(ref) / groupLen; r < groups {
		groups = r
	}
	if groups < pilotGroups+2 {
		return nil, fmt.Errorf("baseline: need %d+ groups (pilots %d + training + data), have %d", pilotGroups+2, pilotGroups, groups)
	}
	est := channel.Estimator{}
	coeff := func(g int) (complex128, error) {
		e, err := est.Estimate(rx[g*groupLen:(g+1)*groupLen], ref[g*groupLen:(g+1)*groupLen])
		return e.H, err
	}
	var hd complex128
	for g := 0; g < pilotGroups; g++ {
		c, err := coeff(g)
		if err != nil {
			return nil, err
		}
		hd += c
	}
	hd /= complex(float64(pilotGroups), 0)
	c0, err := coeff(pilotGroups)
	if err != nil {
		return nil, err
	}
	hb := c0 - hd
	if cmplx.Abs(hb) == 0 {
		return nil, fmt.Errorf("baseline: training group shows no backscatter energy")
	}
	bits := make([]byte, 0, groups-pilotGroups-1)
	for g := pilotGroups + 1; g < groups; g++ {
		c, err := coeff(g)
		if err != nil {
			return nil, err
		}
		if real((c-hd)*cmplx.Conj(hb)) >= 0 {
			bits = append(bits, 1)
		} else {
			bits = append(bits, 0)
		}
	}
	return bits, nil
}
