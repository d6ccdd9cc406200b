// Package analog models the multiscatter tag's analog front end: the
// diode/RC envelope-detector rectifier (basic, clamped, and WISP-tuned
// variants, Figure 3 of the paper) and the ADC that samples its output
// (AD9235 stand-in with configurable rate, resolution, reference voltage
// and EN duty cycling).
//
// The rectifier operates on the carrier envelope: at 2.4 GHz the diode/RC
// network cannot follow the carrier itself, only its envelope, so the
// simulation feeds |IQ| through first-order charge/discharge dynamics.
package analog

import (
	"math"

	"multiscatter/internal/dsp"
)

// Rectifier models a diode envelope detector with separate charge and
// discharge time constants.
type Rectifier struct {
	// TurnOnVoltage is the diode turn-on drop V_on subtracted from the
	// input before it can charge the capacitor (Figure 3b).
	TurnOnVoltage float64
	// Clamped adds the clamp stage of Figure 3c: the input is DC-restored
	// so the full peak-to-peak swing (≈ 2× the envelope) reaches the
	// rectifying diode and the clamp diode's low drop replaces V_on.
	Clamped bool
	// ClampDrop is the clamp diode drop V_D1 (only used when Clamped).
	ClampDrop float64
	// ChargeTau is the charging time constant in seconds (diode on).
	ChargeTau float64
	// DischargeTau is the R1·C discharge time constant in seconds.
	DischargeTau float64
	// Gain is the output voltage divider factor; the paper's rectifier
	// trades output voltage for bandwidth (≈ 0.5 of WISP).
	Gain float64
	// MatchingBoost is the passive voltage gain of the antenna matching
	// network (LC transformers on RFID-class tags provide 2–5× voltage
	// magnification before the rectifier).
	MatchingBoost float64
}

// NewMultiscatterRectifier returns the paper's high-bandwidth rectifier:
// clamped, with τ tuned for f_b = 20 MHz baseband (1/f_c ≪ τ ≪ 1/f_b) and
// roughly half the output voltage of the WISP design.
func NewMultiscatterRectifier() *Rectifier {
	return &Rectifier{
		TurnOnVoltage: 0.25,
		Clamped:       true,
		ClampDrop:     0.05,
		ChargeTau:     2e-9,
		DischargeTau:  45e-9,
		Gain:          0.5,
		MatchingBoost: 2.5,
	}
}

// NewBasicRectifier returns the textbook single-diode rectifier of
// Figure 3a: no clamp, full diode drop, RFID-grade time constants.
func NewBasicRectifier() *Rectifier {
	return &Rectifier{
		TurnOnVoltage: 0.25,
		ChargeTau:     5e-9,
		DischargeTau:  50e-9,
		Gain:          1,
		MatchingBoost: 2.5,
	}
}

// NewWISPRectifier returns a rectifier tuned like the WISP 5.0 front end:
// clamped and high-gain, but with a discharge constant sized for
// 40–160 kbps RFID downlinks, which smears 20 MHz basebands (Figure 4b).
func NewWISPRectifier() *Rectifier {
	return &Rectifier{
		TurnOnVoltage: 0.25,
		Clamped:       true,
		ClampDrop:     0.05,
		ChargeTau:     50e-9,
		DischargeTau:  4e-6,
		Gain:          1,
		MatchingBoost: 2.5,
	}
}

// Detect rectifies an envelope waveform env sampled at rate (Hz).
func (r *Rectifier) Detect(env []float64, rate float64) []float64 {
	return r.DetectInto(make([]float64, len(env)), env, rate)
}

// DetectInto rectifies env into dst (len(env) capacity) and returns
// dst[:len(env)], or nil when rate ≤ 0 or env is empty. dst may be env
// itself: each output depends only on the same-index input and the
// carried capacitor voltage, so rectifying in place is safe.
func (r *Rectifier) DetectInto(dst, env []float64, rate float64) []float64 {
	if rate <= 0 || len(env) == 0 {
		return nil
	}
	dt := 1 / rate
	chargeK := 1 - math.Exp(-dt/maxf(r.ChargeTau, 1e-12))
	dischargeK := math.Exp(-dt / maxf(r.DischargeTau, 1e-12))
	out := dst[:len(env)]
	v := 0.0
	for i, a := range env {
		target := r.effectiveInput(a)
		if target >= v {
			v += (target - v) * chargeK
		} else {
			// The capacitor discharges through R1 toward ground until the
			// diode turns back on at the input level; at coarse time
			// steps that means decaying no further than the target.
			v *= dischargeK
			if v < target {
				v = target
			}
		}
		out[i] = v * r.Gain
	}
	return out
}

// effectiveInput converts an instantaneous envelope amplitude into the
// voltage available to charge the capacitor.
func (r *Rectifier) effectiveInput(a float64) float64 {
	if a < 0 {
		a = 0
	}
	if r.MatchingBoost > 0 {
		a *= r.MatchingBoost
	}
	if r.Clamped {
		// The clamp DC-restores the carrier so its full swing 2a reaches
		// the rectifier, minus the clamp diode drop.
		v := 2*a - r.ClampDrop
		if v < 0 {
			return 0
		}
		return v
	}
	v := a - r.TurnOnVoltage
	if v < 0 {
		return 0
	}
	return v
}

// Sensitivity reports whether an input of power dbm (dBm) produces at
// least the threshold output voltage, assuming a 50 Ω antenna interface.
// The paper sets the threshold at 0.15 V and the tag sensitivity at
// −13 dBm.
func (r *Rectifier) Sensitivity(dbm, thresholdV float64) bool {
	// Peak voltage across 50 Ω for power P: V = sqrt(2·P·50).
	p := dsp.DBmToWatts(dbm)
	v := math.Sqrt(2 * p * 50)
	return r.effectiveInput(v)*r.Gain >= thresholdV
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
