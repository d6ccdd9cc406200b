package tag

import (
	"multiscatter/internal/dsp"
	"multiscatter/internal/radio"
)

// MatchConfig parameterizes the identification correlator.
type MatchConfig struct {
	// Quantized selects ±1 sign correlation (the multiplier-free FPGA
	// implementation) instead of full-precision normalized correlation.
	Quantized bool
	// Thresholds gives each protocol's acceptance threshold for ordered
	// matching. Missing entries default to DefaultThreshold.
	Thresholds map[radio.Protocol]float64
	// Order is the ordered-matching test sequence; nil uses the paper's
	// order (ZigBee, BLE, 802.11b, 802.11n).
	Order []radio.Protocol
}

// DefaultThreshold is the acceptance threshold used when no per-protocol
// threshold is configured.
const DefaultThreshold = 0.55

// searchSamples is the timing-alignment search depth: the streaming
// correlator computes a score at every sample and takes the peak, so
// identification tolerates packet-start uncertainty up to this many ADC
// samples.
const searchSamples = 8

func (c MatchConfig) order() []radio.Protocol {
	if len(c.Order) == 0 {
		return radio.Protocols
	}
	return c.Order
}

func (c MatchConfig) threshold(p radio.Protocol) float64 {
	if t, ok := c.Thresholds[p]; ok {
		return t
	}
	return DefaultThreshold
}

// Matcher correlates acquired ADC sample streams against a template set.
type Matcher struct {
	Set *TemplateSet
	Cfg MatchConfig
}

// NewMatcher returns a matcher over set with cfg.
func NewMatcher(set *TemplateSet, cfg MatchConfig) *Matcher {
	return &Matcher{Set: set, Cfg: cfg}
}

// Score returns the correlation score of samples against protocol p's
// template, in [-1, 1]. The incoming samples go through the same
// streaming preprocessing (DC removal + normalization from the L_p
// window) the template was built with, and the correlator evaluates
// every alignment within the search depth, keeping the peak — the
// behaviour of a streaming correlator watching for a threshold crossing.
func (m *Matcher) Score(samples []float64, p radio.Protocol) float64 {
	t, ok := m.Set.Templates[p]
	if !ok {
		return 0
	}
	best := -1.0
	for off := 0; off <= searchSamples; off++ {
		if off >= len(samples) {
			break
		}
		if s := m.scoreAt(samples[off:], t); s > best {
			best = s
		}
	}
	return best
}

func (m *Matcher) scoreAt(samples []float64, t *Template) float64 {
	n := t.WindowSamples()
	if n > len(samples) {
		n = len(samples)
	}
	// Matchers are shared across identification workers, so scratch comes
	// from the concurrency-safe shared pool rather than the struct.
	pool := &dsp.SharedPool
	buf := pool.GetFloat(n)
	defer pool.PutFloat(buf)
	x := PreprocessInto(buf, samples[:n], t.PreLen)
	if len(x) == 0 {
		return 0
	}
	tmpl := t.Samples
	if len(x) > len(tmpl) {
		x = x[:len(tmpl)]
	}
	if !m.Cfg.Quantized {
		return dsp.NormCorrFloat(x, tmpl)
	}
	qx := pool.GetInt8(len(x))
	defer pool.PutInt8(qx)
	quantizeSignsInto(qx, x)
	return dsp.SignCorr(qx, t.Quantized[:len(qx)])
}

// quantizeSignsInto writes the ±1 sign quantization of x into q
// (len(q) must equal len(x)).
func quantizeSignsInto(q []int8, x []float64) {
	for i, v := range x {
		if v >= 0 {
			q[i] = 1
		} else {
			q[i] = -1
		}
	}
}

// Scores computes the correlation against every template.
func (m *Matcher) Scores(samples []float64) map[radio.Protocol]float64 {
	out := make(map[radio.Protocol]float64, len(m.Set.Templates))
	for p := range m.Set.Templates {
		out[p] = m.Score(samples, p)
	}
	return out
}

// IdentifyBlind picks the highest-scoring protocol ("blind matching"),
// returning ProtocolUnknown if no score clears its threshold.
func (m *Matcher) IdentifyBlind(samples []float64) (radio.Protocol, float64) {
	best := radio.ProtocolUnknown
	bestScore := 0.0
	for _, p := range m.Cfg.order() {
		s := m.Score(samples, p)
		if s > bestScore {
			best, bestScore = p, s
		}
	}
	if best != radio.ProtocolUnknown && bestScore < m.Cfg.threshold(best) {
		return radio.ProtocolUnknown, bestScore
	}
	return best, bestScore
}

// IdentifyOrdered implements the paper's ordered matching (Figure 6):
// protocols are tested in resilience order (ZigBee → BLE → 802.11b →
// 802.11n) and the first score clearing its threshold decides — no
// further correlations are computed, which is also what saves FPGA power.
func (m *Matcher) IdentifyOrdered(samples []float64) (radio.Protocol, float64) {
	for _, p := range m.Cfg.order() {
		s := m.Score(samples, p)
		if s >= m.Cfg.threshold(p) {
			return p, s
		}
	}
	return radio.ProtocolUnknown, 0
}
