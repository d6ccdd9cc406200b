package dsss

import (
	"multiscatter/internal/dsp"
	"multiscatter/internal/radio"
)

// Synchronize locates the start of an 802.11b frame in w by matched-
// filtering against the deterministic PLCP preamble waveform (the
// scrambled SYNC field is a fixed pattern, so the whole preamble is a
// known reference). It returns the sample offset of the frame start and
// the normalized detection score; offset −1 means no plausible preamble
// within maxOffset samples.
func Synchronize(w radio.Waveform, cfg Config, maxOffset int) (int, float64) {
	off, score := dsp.CrossCorrPeak(w.IQ, SyncReference(cfg), maxOffset)
	if score < dsp.SyncThreshold {
		return -1, score
	}
	return off, score
}

// SyncReference synthesizes the matched-filter reference Synchronize
// correlates against: the first 24 µs of the PLCP preamble for cfg.
// Correlating the full 144 µs preamble is unnecessary; 24 µs of
// scrambled SYNC is unambiguous.
func SyncReference(cfg Config) []complex128 {
	m := NewModulator(cfg)
	w, info := m.Modulate(radio.Packet{Payload: []byte{0}})
	n := min(24*11*cfg.samplesPerChip(), info.PreambleEnd)
	return w.IQ[:n]
}
