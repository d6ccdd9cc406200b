package tag

import (
	"math/rand"
	"testing"

	"multiscatter/internal/channel"
	"multiscatter/internal/dsp"
	"multiscatter/internal/radio"
)

func TestTemplateStorage(t *testing.T) {
	// Paper §2.3.2 note 2: four extended templates cost ~400 bits at the
	// 2.5 Msps operating point (40 µs × 2.5 Msps = 100 samples each).
	fe := NewFrontEnd(2.5e6)
	set, err := BuildTemplateSet(fe, ExtendedWindowUS)
	if err != nil {
		t.Fatal(err)
	}
	if got := set.TotalStorageBits(); got != 400 {
		t.Fatalf("extended template storage = %d bits, want 400", got)
	}
	// 1.1% of the AGLN250's 36 kb.
	frac := float64(set.TotalStorageBits()) / 36864
	if frac > 0.012 {
		t.Fatalf("storage fraction %v too high", frac)
	}
}

func TestTemplatesNormalized(t *testing.T) {
	fe := NewFrontEnd(20e6)
	set, err := BuildTemplateSet(fe, BaseWindowUS)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Templates) != 4 {
		t.Fatalf("template count = %d", len(set.Templates))
	}
	for p, tpl := range set.Templates {
		if tpl.WindowSamples() != 160 { // 8 µs at 20 Msps
			t.Errorf("%v window = %d samples, want 160", p, tpl.WindowSamples())
		}
		if tpl.PreLen != 40 { // the paper's L_p = 40
			t.Errorf("%v L_p = %d, want 40", p, tpl.PreLen)
		}
		if len(tpl.Samples) != 120 { // the paper's L_t/L_m = 120
			t.Errorf("%v matching window = %d, want 120", p, len(tpl.Samples))
		}
		for i, q := range tpl.Quantized {
			want := int8(1)
			if tpl.Samples[i] < 0 {
				want = -1
			}
			if q != want {
				t.Fatalf("%v quantized[%d] mismatch", p, i)
			}
		}
	}
}

func TestTemplatesDistinct(t *testing.T) {
	// Figure 5a: the four acquired envelopes must be mutually
	// distinguishable — cross-correlation well below self-correlation.
	fe := NewFrontEnd(20e6)
	set, err := BuildTemplateSet(fe, BaseWindowUS)
	if err != nil {
		t.Fatal(err)
	}
	for a, ta := range set.Templates {
		for b, tb := range set.Templates {
			c := dsp.NormCorrFloat(ta.Samples, tb.Samples)
			if a == b {
				if c < 0.999 {
					t.Errorf("%v self-correlation %v", a, c)
				}
			} else if c > 0.85 {
				t.Errorf("%v vs %v cross-correlation %v too high", a, b, c)
			}
		}
	}
}

func TestPreambleWaveformUnknown(t *testing.T) {
	if _, err := PreambleWaveform(radio.ProtocolUnknown); err == nil {
		t.Fatal("expected error for unknown protocol")
	}
}

func cleanIdentify(t *testing.T, cfg IdentifierConfig, ordered bool) map[radio.Protocol]radio.Protocol {
	t.Helper()
	id, err := NewIdentifier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := map[radio.Protocol]radio.Protocol{}
	for _, p := range radio.Protocols {
		w, err := PreambleWaveform(p)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := id.Identify(w.IQ, w.Rate, ordered)
		out[p] = got
	}
	return out
}

func TestIdentifyCleanFullPrecision20Msps(t *testing.T) {
	// At 20 Msps with full-precision correlation (Figure 5b's regime),
	// clean signals must classify perfectly, blind or ordered.
	for _, ordered := range []bool{false, true} {
		got := cleanIdentify(t, IdentifierConfig{ADCRate: 20e6}, ordered)
		for p, g := range got {
			if g != p {
				t.Errorf("ordered=%v: %v identified as %v", ordered, p, g)
			}
		}
	}
}

func TestIdentifyCleanQuantized10Msps(t *testing.T) {
	// Figure 7's regime: 10 Msps with ±1 quantization still classifies
	// clean signals correctly.
	for _, ordered := range []bool{false, true} {
		got := cleanIdentify(t, IdentifierConfig{ADCRate: 10e6, Quantized: true}, ordered)
		for p, g := range got {
			if g != p {
				t.Errorf("ordered=%v: %v identified as %v", ordered, p, g)
			}
		}
	}
}

func TestIdentifyCleanExtended2_5Msps(t *testing.T) {
	// Figure 8b's regime: 2.5 Msps + quantization + the 40 µs extended
	// window classifies clean signals correctly.
	got := cleanIdentify(t, IdentifierConfig{ADCRate: 2.5e6, Quantized: true, Extended: true}, true)
	for p, g := range got {
		if g != p {
			t.Errorf("%v identified as %v", p, g)
		}
	}
}

func TestShortWindowDegradesAtLowRate(t *testing.T) {
	// Figure 8a: at 2.5 Msps the 8 µs window has only 20 samples and
	// classification under noise collapses; the extended window rescues
	// it. We compare noisy accuracy between the two.
	rng := rand.New(rand.NewSource(17))
	shortID, err := NewIdentifier(IdentifierConfig{ADCRate: 2.5e6, Quantized: true})
	if err != nil {
		t.Fatal(err)
	}
	extID, err := NewIdentifier(IdentifierConfig{ADCRate: 2.5e6, Quantized: true, Extended: true})
	if err != nil {
		t.Fatal(err)
	}
	const trials = 12
	const snrDB = 15.0
	correctShort, correctExt := 0, 0
	for _, p := range radio.Protocols {
		w, err := PreambleWaveform(p)
		if err != nil {
			t.Fatal(err)
		}
		// Start-phase jitter spans one ADC period (the converter clock
		// free-runs relative to packet arrival).
		period := int(w.Rate / 2.5e6)
		for i := 0; i < trials; i++ {
			off := rng.Intn(period + 1)
			iq := make([]complex128, off, off+len(w.IQ))
			iq = append(iq, w.IQ...)
			channel.AWGN(iq, snrDB, rng)
			if got, _ := shortID.Identify(iq, w.Rate, true); got == p {
				correctShort++
			}
			iq = make([]complex128, off, off+len(w.IQ))
			iq = append(iq, w.IQ...)
			channel.AWGN(iq, snrDB, rng)
			if got, _ := extID.Identify(iq, w.Rate, true); got == p {
				correctExt++
			}
		}
	}
	total := float64(4 * trials)
	accShort := float64(correctShort) / total
	accExt := float64(correctExt) / total
	if accExt <= accShort {
		t.Fatalf("extended window accuracy %v not above short %v", accExt, accShort)
	}
	if accExt < 0.75 {
		t.Fatalf("extended-window accuracy %v too low", accExt)
	}
}

func TestScoresSelfHighest(t *testing.T) {
	fe := NewFrontEnd(20e6)
	set, err := BuildTemplateSet(fe, BaseWindowUS)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(set, MatchConfig{})
	for _, p := range radio.Protocols {
		w, err := PreambleWaveform(p)
		if err != nil {
			t.Fatal(err)
		}
		scores := m.Scores(fe.Acquire(w.IQ, w.Rate))
		if len(scores) != 4 {
			t.Fatal("missing scores")
		}
		for q, s := range scores {
			if q != p && s >= scores[p] {
				t.Errorf("%v: foreign template %v scored %v ≥ self %v", p, q, s, scores[p])
			}
		}
	}
}

// TestScoreSearchDepth pins the alignment search at 8 ADC samples: a
// clean capture that starts up to 8 samples late still scores at least
// as high as the aligned one.
func TestScoreSearchDepth(t *testing.T) {
	const depth = 8
	fe := NewFrontEnd(20e6)
	set, err := BuildTemplateSet(fe, BaseWindowUS)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(set, MatchConfig{})
	for _, p := range radio.Protocols {
		w, err := PreambleWaveform(p)
		if err != nil {
			t.Fatal(err)
		}
		clean := fe.Acquire(w.IQ, w.Rate)
		aligned := m.scoreAt(clean, set.Templates[p])
		for d := 0; d <= depth; d++ {
			delayed := append(make([]float64, d), clean...)
			if got := m.Score(delayed, p); got < aligned {
				t.Errorf("%v delayed %d samples: score %v below aligned %v", p, d, got, aligned)
			}
		}
	}
}

func TestIdentifyRejectsNoise(t *testing.T) {
	// Pure noise must identify as unknown under both policies.
	id, err := NewIdentifier(IdentifierConfig{ADCRate: 20e6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	iq := make([]complex128, 4000)
	for i := range iq {
		iq[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 0.1
	}
	if got, score := id.Identify(iq, 20e6, true); got != radio.ProtocolUnknown {
		t.Fatalf("noise identified as %v (score %v)", got, score)
	}
	if got, score := id.Identify(iq, 20e6, false); got != radio.ProtocolUnknown {
		t.Fatalf("noise blindly identified as %v (score %v)", got, score)
	}
}

func TestMatchConfigDefaults(t *testing.T) {
	var c MatchConfig
	if len(c.order()) != 4 || c.order()[0] != radio.ProtocolZigBee {
		t.Fatal("default order should be the paper's resilience order")
	}
	if c.threshold(radio.ProtocolBLE) != DefaultThreshold {
		t.Fatal("default threshold")
	}
	c.Thresholds = map[radio.Protocol]float64{radio.ProtocolBLE: 0.9}
	if c.threshold(radio.ProtocolBLE) != 0.9 {
		t.Fatal("override threshold")
	}
}

func TestFrontEndDegenerate(t *testing.T) {
	fe := NewFrontEnd(20e6)
	if fe.Acquire(nil, 20e6) != nil {
		t.Fatal("nil IQ")
	}
	if fe.Acquire([]complex128{1}, 0) != nil {
		t.Fatal("zero rate")
	}
	// Zero slope disables FM→AM but still works.
	fe.Slope = 0
	out := fe.Acquire(make([]complex128, 100), 20e6)
	if len(out) == 0 {
		t.Fatal("zero-slope acquire failed")
	}
}
