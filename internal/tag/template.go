package tag

import (
	"fmt"

	"multiscatter/internal/dsp"
	"multiscatter/internal/phy/ble"
	"multiscatter/internal/phy/dsss"
	"multiscatter/internal/phy/ofdm"
	"multiscatter/internal/phy/zigbee"
	"multiscatter/internal/radio"
)

// BaseWindowUS is the default matching window: 8 µs, the BLE preamble
// length (the shortest packet-detection field of the four protocols).
const BaseWindowUS = 8.0

// ExtendedWindowUS is the prolonged matching window of §2.3.2: 40 µs,
// safe for all four protocols (BLE preamble + access address, 802.11n
// legacy preamble + HT fields, and the long 802.11b/ZigBee preambles).
const ExtendedWindowUS = 40.0

// Template is one protocol's stored reference: the expected ADC sample
// stream over the matching window L_m, normalized with statistics from the
// preceding preprocessing window L_p — exactly the streaming pipeline the
// FPGA applies to live samples, so a clean self-match scores 1. Both the
// full-precision and the ±1-quantized forms are kept; the quantized form
// is what fits the AGLN250 (Table 2).
type Template struct {
	// Protocol this template identifies.
	Protocol radio.Protocol
	// PreLen is the preprocessing window length L_p in samples.
	PreLen int
	// Samples is the normalized full-precision reference over the
	// matching window L_m (it does not include the preprocessing window).
	Samples []float64
	// Quantized is the ±1 sign pattern of Samples.
	Quantized []int8
	// Rate is the ADC sample rate the template was built for.
	Rate float64
	// WindowUS is the template's total time span (L_p + L_m) in
	// microseconds.
	WindowUS float64
}

// WindowSamples returns the total window length L_p + L_m in samples.
func (t *Template) WindowSamples() int { return t.PreLen + len(t.Samples) }

// StorageBits returns the tag storage cost of the template: one bit per
// window sample (the full L_p + L_m reference pattern is kept on the
// FPGA; §2.3.2 note 2: four extended templates cost 400 bits, 1.1% of
// the AGLN250's 36 kb).
func (t *Template) StorageBits() int { return t.WindowSamples() }

// PreambleWaveform returns the canonical clean excitation waveform used to
// build protocol p's template: the front of a representative packet,
// covering at least the extended window.
func PreambleWaveform(p radio.Protocol) (radio.Waveform, error) {
	switch p {
	case radio.Protocol80211b:
		m := dsss.NewModulator(dsss.Config{Rate: dsss.Rate1Mbps})
		w, _ := m.Modulate(radio.Packet{Payload: []byte{0x00}})
		return w, nil
	case radio.Protocol80211n:
		m := ofdm.NewModulator(ofdm.Config{Modulation: ofdm.BPSK})
		w, _ := m.Modulate(radio.Packet{Payload: []byte{0x00, 0x00}})
		return w, nil
	case radio.ProtocolBLE:
		m := ble.NewModulator(ble.Config{})
		w, _ := m.Modulate(radio.Packet{Payload: []byte{0x00}})
		return w, nil
	case radio.ProtocolZigBee:
		m := zigbee.NewModulator(zigbee.Config{})
		w, _ := m.Modulate(radio.Packet{Payload: []byte{0x00}})
		return w, nil
	default:
		return radio.Waveform{}, fmt.Errorf("tag: no preamble for %v", p)
	}
}

// preprocessFrac is the fraction of the window used as the
// preprocessing window L_p for DC removal and normalization; the
// remainder is the matching window L_m. The paper's 20 Msps sweet spot
// is L_p = 40 of 160 samples.
const preprocessFrac = 0.25

// BuildTemplate acquires protocol p's clean preamble through fe, splits
// the windowUS-long window into preprocessing and matching parts per
// preprocessFrac, and stores the normalized matching window.
func BuildTemplate(fe *FrontEnd, p radio.Protocol, windowUS float64) (*Template, error) {
	w, err := PreambleWaveform(p)
	if err != nil {
		return nil, err
	}
	samples := fe.Acquire(w.IQ, w.Rate)
	n := int(windowUS * fe.ADC.Rate / 1e6)
	if n < 4 {
		n = 4
	}
	if n > len(samples) {
		n = len(samples)
	}
	lp := int(float64(n) * preprocessFrac)
	if lp < 1 {
		lp = 1
	}
	ref := Preprocess(samples[:n], lp)
	q := make([]int8, len(ref))
	for i, v := range ref {
		if v >= 0 {
			q[i] = 1
		} else {
			q[i] = -1
		}
	}
	return &Template{
		Protocol:  p,
		PreLen:    lp,
		Samples:   ref,
		Quantized: q,
		Rate:      fe.ADC.Rate,
		WindowUS:  windowUS,
	}, nil
}

// Preprocess applies the tag's streaming normalization: the first preLen
// samples form the preprocessing window whose mean and deviation
// normalize the remainder (the matching window). It returns the
// normalized matching window.
func Preprocess(samples []float64, preLen int) []float64 {
	if preLen < 1 {
		preLen = 1
	}
	if preLen >= len(samples) {
		return nil
	}
	return PreprocessInto(make([]float64, len(samples)-preLen), samples, preLen)
}

// PreprocessInto is the zero-alloc form of Preprocess: dst must have
// capacity for len(samples)−preLen values (preLen clamped to ≥ 1). It
// returns the filled prefix of dst, or nil when the preprocessing window
// covers the whole input.
func PreprocessInto(dst, samples []float64, preLen int) []float64 {
	if preLen < 1 {
		preLen = 1
	}
	if preLen >= len(samples) {
		return nil
	}
	mean := dsp.MeanFloat(samples[:preLen])
	sd := dsp.StdDevFloat(samples[:preLen])
	if sd <= 0 {
		sd = 1
	}
	out := dst[:len(samples)-preLen]
	for i := range out {
		out[i] = (samples[preLen+i] - mean) / sd
	}
	return out
}

// TemplateSet holds the four protocol templates for one operating point.
type TemplateSet struct {
	// Templates by protocol.
	Templates map[radio.Protocol]*Template
	// WindowUS all templates share.
	WindowUS float64
	// Rate all templates share.
	Rate float64
}

// BuildTemplateSet builds all four templates through fe.
func BuildTemplateSet(fe *FrontEnd, windowUS float64) (*TemplateSet, error) {
	set := &TemplateSet{
		Templates: make(map[radio.Protocol]*Template, 4),
		WindowUS:  windowUS,
		Rate:      fe.ADC.Rate,
	}
	for _, p := range radio.Protocols {
		t, err := BuildTemplate(fe, p, windowUS)
		if err != nil {
			return nil, err
		}
		set.Templates[p] = t
	}
	return set, nil
}

// TotalStorageBits sums the quantized storage of all templates.
func (s *TemplateSet) TotalStorageBits() int {
	total := 0
	for _, t := range s.Templates {
		total += t.StorageBits()
	}
	return total
}
