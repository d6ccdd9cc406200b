package trace

import (
	"bytes"
	"math"
	"testing"
)

// FuzzTraceLoad takes arbitrary bytes through Load and then Evaluate,
// blind at the base window and ordered at the extended one: each must
// end in an error or a confusion matrix, never a panic. Inputs are capped at 64 kB, which gzip cannot inflate
// past ≈66 MB. The seeds are a small collected set and the same set
// with a NaN ADC rate.
func FuzzTraceLoad(f *testing.F) {
	s, err := Collect(CollectOptions{ADCRate: 2.5e6, Extended: true, PerProtocol: 1, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, rate := range []float64{s.ADCRate, math.NaN()} {
		s.ADCRate = rate
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			return
		}
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, extended := range []bool{false, true} {
			c, err := s.Evaluate(EvaluateOptions{Quantized: true, Extended: extended, Ordered: extended})
			if err == nil && c.Total() != len(s.Traces) {
				t.Fatalf("evaluated %d of %d traces", c.Total(), len(s.Traces))
			}
		}
	})
}
