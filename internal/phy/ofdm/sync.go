package ofdm

import (
	"multiscatter/internal/dsp"
	"multiscatter/internal/radio"
)

// Synchronize locates the start of an 802.11n frame in w using the
// classic two-stage detector: the L-STF's 16-sample periodicity raises a
// Schmidl&Cox-style autocorrelation plateau (coarse timing), then a
// cross-correlation against the known L-LTF refines to sample accuracy.
// It returns the frame-start sample offset and the fine-stage score;
// offset −1 means no plausible frame within maxOffset samples.
func Synchronize(w radio.Waveform, maxOffset int) (int, float64) {
	if maxOffset <= 0 || maxOffset > len(w.IQ) {
		maxOffset = len(w.IQ)
	}
	coarse := dsp.AutoCorrPlateau(w.IQ[:min(len(w.IQ), maxOffset+160)], 16, 64, 0.9, 8)
	if coarse < 0 {
		return -1, 0
	}
	// The L-LTF begins 160 samples after the STF start; search ±40
	// samples around the coarse estimate.
	ref := referenceLTF()
	lo := coarse + 160 - 40
	if lo < 0 {
		lo = 0
	}
	hi := lo + 80 + len(ref)
	if hi > len(w.IQ) {
		hi = len(w.IQ)
	}
	if hi-lo < len(ref) {
		return -1, 0
	}
	off, score := dsp.CrossCorrPeak(w.IQ[lo:hi], ref, hi-lo-len(ref))
	if off < 0 || score < dsp.SyncThreshold {
		return -1, score
	}
	// The LTF reference starts at LegacyEnd−(64*2+32)−... it is placed
	// 160 samples after frame start (after the 32-sample GI2 the two
	// long symbols follow; our reference includes the GI2).
	start := lo + off - 160
	if start < 0 {
		start = 0
	}
	return start, score
}

// referenceLTF synthesizes the 160-sample L-LTF field (GI2 + two long
// training symbols).
func referenceLTF() []complex128 {
	ltf := ofdmSymbol(lltfSeq)[GuardSamples:]
	out := make([]complex128, 0, 160)
	out = append(out, ltf[FFTSize-32:]...)
	out = append(out, ltf...)
	out = append(out, ltf...)
	return out
}
