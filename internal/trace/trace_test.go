package trace

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"multiscatter/internal/radio"
)

func collectSmall(t *testing.T) *Set {
	t.Helper()
	s, err := Collect(CollectOptions{
		ADCRate:     2.5e6,
		Extended:    true,
		PerProtocol: 8,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCollect(t *testing.T) {
	s := collectSmall(t)
	if len(s.Traces) != 32 {
		t.Fatalf("traces = %d, want 32", len(s.Traces))
	}
	counts := map[radio.Protocol]int{}
	for _, tr := range s.Traces {
		counts[tr.Protocol]++
		if len(tr.Samples) == 0 {
			t.Fatal("empty trace")
		}
		if tr.SNRdB < 9 || tr.SNRdB > 21 {
			t.Fatalf("SNR %v outside default mixture", tr.SNRdB)
		}
	}
	for _, p := range radio.Protocols {
		if counts[p] != 8 {
			t.Fatalf("%v count = %d", p, counts[p])
		}
	}
}

func TestCollectValidation(t *testing.T) {
	// The ADC rate bound is the fastest preamble waveform: 802.11b's
	// 22 Msps.
	if got := maxADCRate(); got != 22e6 {
		t.Fatalf("maximum ADC rate %v, want 22e6", got)
	}
	if _, err := Collect(CollectOptions{ADCRate: 22e6, PerProtocol: 1}); err != nil {
		t.Fatalf("22 Msps rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, o := range map[string]CollectOptions{
		"zero rate":      {},
		"negative rate":  {ADCRate: -1e6},
		"NaN rate":       {ADCRate: nan},
		"+Inf rate":      {ADCRate: inf},
		"1e15 samples/s": {ADCRate: 1e15},
		"NaN SNR low":    {ADCRate: 2.5e6, SNRLoDB: nan},
		"+Inf SNR high":  {ADCRate: 2.5e6, SNRHiDB: inf},
		"-Inf SNR low":   {ADCRate: 2.5e6, SNRLoDB: -inf},
	} {
		if _, err := Collect(o); err == nil {
			t.Errorf("%s: Collect accepted %+v", name, o)
		}
	}
	// Load checks a saved set the same way.
	for name, edit := range map[string]func(*Set){
		"NaN rate":         func(s *Set) { s.ADCRate = nan },
		"zero rate":        func(s *Set) { s.ADCRate = 0 },
		"negative rate":    func(s *Set) { s.ADCRate = -1 },
		"+Inf rate":        func(s *Set) { s.ADCRate = inf },
		"23 Msps":          func(s *Set) { s.ADCRate = 23e6 },
		"12 µs window":     func(s *Set) { s.WindowUS = 12 },
		"unknown protocol": func(s *Set) { s.Traces[3].Protocol = 99 },
	} {
		s, err := Collect(CollectOptions{ADCRate: 2.5e6, PerProtocol: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		edit(s)
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil {
			t.Errorf("%s: Load accepted the set", name)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := collectSmall(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ADCRate != s.ADCRate || got.WindowUS != s.WindowUS || len(got.Traces) != len(s.Traces) {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	for i := range s.Traces {
		if got.Traces[i].Protocol != s.Traces[i].Protocol {
			t.Fatal("label mismatch")
		}
		if len(got.Traces[i].Samples) != len(s.Traces[i].Samples) {
			t.Fatal("sample length mismatch")
		}
	}
	// Compression should beat raw float64 encoding substantially.
	raw := 0
	for _, tr := range s.Traces {
		raw += 8 * len(tr.Samples)
	}
	if buf.Len() >= raw {
		t.Fatalf("compressed %d ≥ raw %d", buf.Len(), raw)
	}
}

func TestSaveLoadFile(t *testing.T) {
	s := collectSmall(t)
	path := filepath.Join(t.TempDir(), "traces.gob.gz")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Traces) != len(s.Traces) {
		t.Fatal("file round trip lost traces")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not gzip"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestEvaluateStoredSet(t *testing.T) {
	s := collectSmall(t)
	// Extended-window ordered evaluation on the stored traces must be
	// accurate (this is the 2.5 Msps extended operating point).
	c, err := s.Evaluate(EvaluateOptions{Quantized: true, Extended: true, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Total() != len(s.Traces) {
		t.Fatalf("evaluated %d of %d", c.Total(), len(s.Traces))
	}
	if c.Average() < 0.8 {
		t.Fatalf("stored-set accuracy %v too low\n%s", c.Average(), c)
	}
	// The same traces re-scored with the short window must do worse —
	// replaying one capture under many configurations is the point.
	short, err := s.Evaluate(EvaluateOptions{Quantized: true, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	if short.Average() >= c.Average() {
		t.Fatalf("short-window %v should underperform extended %v", short.Average(), c.Average())
	}
}

func TestEvaluateWindowMismatch(t *testing.T) {
	s, err := Collect(CollectOptions{ADCRate: 2.5e6, PerProtocol: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Captured with 8 µs metadata; extended evaluation must refuse.
	if _, err := s.Evaluate(EvaluateOptions{Extended: true}); err == nil {
		t.Fatal("window mismatch accepted")
	}
}
