package ble

import (
	"multiscatter/internal/dsp"
	"multiscatter/internal/radio"
)

// Synchronize locates the start of a BLE advertising frame in w by
// matched-filtering against the deterministic preamble + access-address
// GFSK waveform (40 µs, fully known for advertising packets). It returns
// the frame-start sample offset and the normalized detection score;
// offset −1 means no plausible frame within maxOffset samples.
func Synchronize(w radio.Waveform, cfg Config, maxOffset int) (int, float64) {
	off, score := dsp.CrossCorrPeak(w.IQ, SyncReference(cfg), maxOffset)
	if score < dsp.SyncThreshold {
		return -1, score
	}
	return off, score
}

// SyncReference synthesizes the matched-filter reference Synchronize
// correlates against: the preamble + access address for cfg.
func SyncReference(cfg Config) []complex128 {
	m := NewModulator(cfg)
	w, info := m.Modulate(radio.Packet{Payload: []byte{0}})
	return w.IQ[:info.AccessEnd]
}
