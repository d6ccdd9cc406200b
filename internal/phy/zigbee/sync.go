package zigbee

import (
	"multiscatter/internal/dsp"
	"multiscatter/internal/radio"
)

// Synchronize locates the start of an 802.15.4 frame in w by matched-
// filtering against the SHR (eight zero symbols + SFD — a fixed 160 µs
// O-QPSK waveform). It returns the frame-start sample offset and the
// normalized detection score; offset −1 means no plausible frame within
// maxOffset samples.
func Synchronize(w radio.Waveform, cfg Config, maxOffset int) (int, float64) {
	off, score := dsp.CrossCorrPeak(w.IQ, SyncReference(cfg), maxOffset)
	if score < dsp.SyncThreshold {
		return -1, score
	}
	return off, score
}

// SyncReference synthesizes the matched-filter reference Synchronize
// correlates against: the first three SHR preamble symbols for cfg,
// which are enough to lock unambiguously.
func SyncReference(cfg Config) []complex128 {
	m := NewModulator(cfg)
	w, info := m.Modulate(radio.Packet{Payload: []byte{0}})
	n := min(3*ChipsPerSymbol*cfg.spc(), info.SHREnd)
	return w.IQ[:n]
}
