package tag

import (
	"multiscatter/internal/radio"
)

// Identifier composes the acquisition front end, the template set and the
// matcher into the tag's packet-identification unit.
type Identifier struct {
	// FrontEnd acquires IQ into ADC samples.
	FrontEnd *FrontEnd
	// Matcher scores against the templates.
	Matcher *Matcher
}

// IdentifierConfig selects an identification operating point.
type IdentifierConfig struct {
	// ADCRate in samples/s (20e6, 10e6, 2.5e6, 1e6 in the paper's
	// sweeps).
	ADCRate float64
	// Quantized selects the ±1 FPGA implementation.
	Quantized bool
	// Extended selects the 40 µs matching window instead of 8 µs.
	Extended bool
	// Ordered selects ordered matching; false means blind matching.
	Ordered bool
	// Thresholds optionally overrides per-protocol thresholds.
	Thresholds map[radio.Protocol]float64
}

// WindowUS returns the configured window length in microseconds.
func (c IdentifierConfig) WindowUS() float64 {
	if c.Extended {
		return ExtendedWindowUS
	}
	return BaseWindowUS
}

// NewIdentifier builds the templates through a default front end at the
// configured ADC rate and returns the assembled identifier.
func NewIdentifier(cfg IdentifierConfig) (*Identifier, error) {
	fe := NewFrontEnd(cfg.ADCRate)
	set, err := BuildTemplateSet(fe, cfg.WindowUS())
	if err != nil {
		return nil, err
	}
	m := NewMatcher(set, MatchConfig{
		Quantized:  cfg.Quantized,
		Thresholds: cfg.Thresholds,
	})
	return &Identifier{FrontEnd: fe, Matcher: m}, nil
}

// Identify acquires iq (a packet-aligned excitation at the given sample
// rate) and classifies it. ordered selects the matching policy.
func (id *Identifier) Identify(iq []complex128, rate float64, ordered bool) (radio.Protocol, float64) {
	samples := id.FrontEnd.Acquire(iq, rate)
	if ordered {
		return id.Matcher.IdentifyOrdered(samples)
	}
	return id.Matcher.IdentifyBlind(samples)
}
