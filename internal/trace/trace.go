// Package trace records and replays identification traces — the
// acquired ADC sample streams the tag's matcher scores. The paper's
// threshold search ran over 200,000 captured traces "of different
// ranges, scenarios, and protocols"; this package provides the same
// capture→store→re-evaluate workflow: Collect generates labelled traces
// through the acquisition front end, Set.Save/Load persist them
// (gob + gzip), and Evaluate re-scores a stored set under any matcher
// configuration without re-running the waveform pipeline.
package trace

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"sync"

	"multiscatter/internal/channel"
	"multiscatter/internal/radio"
	"multiscatter/internal/stats"
	"multiscatter/internal/tag"
)

// Trace is one labelled acquisition.
type Trace struct {
	// Protocol that was actually transmitted.
	Protocol radio.Protocol
	// SNRdB the trace was captured at.
	SNRdB float64
	// OffsetSamples of start-phase jitter (native-rate samples).
	OffsetSamples int
	// Samples is the ADC output stream.
	Samples []float64
}

// Set is a persistable collection of traces sharing one capture setup.
type Set struct {
	// ADCRate the traces were acquired at.
	ADCRate float64
	// WindowUS of the intended matching window (metadata).
	WindowUS float64
	// Seed used during collection.
	Seed int64
	// Traces in collection order.
	Traces []Trace
}

// CollectOptions configures trace collection.
type CollectOptions struct {
	// ADCRate in samples/s.
	ADCRate float64
	// Extended selects the 40 µs window metadata.
	Extended bool
	// PerProtocol is the number of traces per protocol.
	PerProtocol int
	// SNRLoDB and SNRHiDB bound the uniform SNR mixture.
	SNRLoDB, SNRHiDB float64
	// ADCNoiseLSB is the converter noise level.
	ADCNoiseLSB float64
	// Seed for reproducibility.
	Seed int64
}

// maxADCRate is the fastest preamble waveform's sample rate, the
// highest rate a set may be acquired at.
var maxADCRate = sync.OnceValue(func() float64 {
	var fastest float64
	for _, p := range radio.Protocols {
		w, _ := tag.PreambleWaveform(p) // errs only outside radio.Protocols
		fastest = max(fastest, w.Rate)
	}
	return fastest
})

// check reports the first reason s cannot be evaluated: an ADC rate
// that is not finite, not positive or above maxADCRate, a window other
// than the two matching windows, or a trace of an unknown protocol.
func (s *Set) check() error {
	if !(s.ADCRate > 0 && s.ADCRate <= maxADCRate()) {
		return fmt.Errorf("trace: ADC rate %v outside (0, %v] samples/s", s.ADCRate, maxADCRate())
	}
	if s.WindowUS != tag.BaseWindowUS && s.WindowUS != tag.ExtendedWindowUS {
		return fmt.Errorf("trace: window %v µs is neither %v nor %v", s.WindowUS, tag.BaseWindowUS, tag.ExtendedWindowUS)
	}
	for i, tr := range s.Traces {
		if !slices.Contains(radio.Protocols, tr.Protocol) {
			return fmt.Errorf("trace: trace %d has unknown protocol %v", i, tr.Protocol)
		}
	}
	return nil
}

// Collect generates a labelled trace set through the default acquisition
// front end.
func Collect(o CollectOptions) (*Set, error) {
	window := tag.BaseWindowUS
	if o.Extended {
		window = tag.ExtendedWindowUS
	}
	set := &Set{ADCRate: o.ADCRate, WindowUS: window, Seed: o.Seed}
	if err := set.check(); err != nil {
		return nil, err
	}
	if lo, hi := o.SNRLoDB, o.SNRHiDB; math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return nil, fmt.Errorf("trace: SNR bounds %v, %v dB are not finite", lo, hi)
	}
	if o.PerProtocol <= 0 {
		o.PerProtocol = 50
	}
	if o.SNRLoDB == 0 && o.SNRHiDB == 0 {
		o.SNRLoDB, o.SNRHiDB = 9, 21
	}
	fe := tag.NewFrontEnd(o.ADCRate)
	rng := rand.New(rand.NewSource(o.Seed + 17))
	fe.ADC.Rand = rng
	if o.ADCNoiseLSB > 0 {
		fe.ADC.NoiseLSB = o.ADCNoiseLSB
	}
	for _, p := range radio.Protocols {
		w, err := tag.PreambleWaveform(p)
		if err != nil {
			return nil, err
		}
		period := int(w.Rate / o.ADCRate)
		if period < 1 {
			period = 1
		}
		for i := 0; i < o.PerProtocol; i++ {
			off := rng.Intn(period + 1)
			iq := make([]complex128, off, off+len(w.IQ))
			iq = append(iq, w.IQ...)
			snr := o.SNRLoDB + rng.Float64()*(o.SNRHiDB-o.SNRLoDB)
			channel.AWGN(iq, snr, rng)
			samples := fe.Acquire(iq, w.Rate)
			// Store only what any window needs: the extended window plus
			// the alignment search slack.
			keep := int((tag.ExtendedWindowUS+8)*o.ADCRate/1e6) + 16
			if keep < len(samples) {
				samples = samples[:keep]
			}
			set.Traces = append(set.Traces, Trace{
				Protocol:      p,
				SNRdB:         snr,
				OffsetSamples: off,
				Samples:       samples,
			})
		}
	}
	return set, nil
}

// Save writes the set as gzip-compressed gob.
func (s *Set) Save(w io.Writer) error {
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(s); err != nil {
		zw.Close()
		return fmt.Errorf("trace: encode: %w", err)
	}
	return zw.Close()
}

// SaveFile writes the set to a file path.
func (s *Set) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a set written by Save.
func Load(r io.Reader) (*Set, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("trace: gzip: %w", err)
	}
	defer zr.Close()
	var s Set
	if err := gob.NewDecoder(zr).Decode(&s); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if err := s.check(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads a set from a file path.
func LoadFile(path string) (*Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// EvaluateOptions selects the matcher policy a stored set is re-scored
// under.
type EvaluateOptions struct {
	// Quantized selects ±1 correlation.
	Quantized bool
	// Extended selects the 40 µs window (must not exceed the stored
	// metadata's window).
	Extended bool
	// Ordered selects ordered matching.
	Ordered bool
	// Thresholds optionally overrides per-protocol thresholds.
	Thresholds map[radio.Protocol]float64
}

// Evaluate re-scores the stored traces under a matcher configuration and
// returns the confusion matrix. Templates are rebuilt clean at the set's
// ADC rate — exactly what re-running a threshold search over captured
// traces looks like.
func (s *Set) Evaluate(o EvaluateOptions) (*stats.Confusion, error) {
	fe := tag.NewFrontEnd(s.ADCRate)
	window := tag.BaseWindowUS
	if o.Extended {
		window = tag.ExtendedWindowUS
	}
	if window > s.WindowUS {
		return nil, fmt.Errorf("trace: set captured for %.0f µs windows, need %.0f", s.WindowUS, window)
	}
	set, err := tag.BuildTemplateSet(fe, window)
	if err != nil {
		return nil, err
	}
	m := tag.NewMatcher(set, tag.MatchConfig{
		Quantized:  o.Quantized,
		Thresholds: o.Thresholds,
	})
	c := stats.NewConfusion()
	for _, tr := range s.Traces {
		var got radio.Protocol
		if o.Ordered {
			got, _ = m.IdentifyOrdered(tr.Samples)
		} else {
			got, _ = m.IdentifyBlind(tr.Samples)
		}
		c.Add(tr.Protocol, got)
	}
	return c, nil
}
