package core

import (
	"errors"

	"multiscatter/internal/dsp"
	"multiscatter/internal/overlay"
	"multiscatter/internal/phy/ble"
	"multiscatter/internal/phy/dsss"
	"multiscatter/internal/phy/zigbee"
	"multiscatter/internal/radio"
)

// UniversalFrame is the result of protocol-agnostic reception: the
// identified protocol and the recovered link-layer payload.
type UniversalFrame struct {
	// Protocol of the frame.
	Protocol radio.Protocol
	// Payload bytes (descrambled/de-whitened; CRC verified where the
	// protocol carries one).
	Payload []byte
	// StartSample of the frame in the capture.
	StartSample int
	// SyncScore is the matched-filter detection score.
	SyncScore float64
}

// ErrNoFrameFound is returned when no protocol's receive chain locks.
var ErrNoFrameFound = errors.New("core: no frame of any protocol found")

// UniversalReceive tries every protocol's receive chain on an unaligned
// capture and returns the best lock — the software equivalent of a
// monitor radio scanning the 2.4 GHz band. Protocols are tried in the
// tag's ordered-matching order, and among successful locks the highest
// sync score wins. 802.11n is excluded (its payload layout depends on a
// modulation the capture alone does not reveal in this simulator); use
// the ofdm package directly for frames of known modulation.
func UniversalReceive(w radio.Waveform, maxOffset int) (*UniversalFrame, error) {
	var best *UniversalFrame
	consider := func(f *UniversalFrame) {
		if best == nil || f.SyncScore > best.SyncScore {
			best = f
		}
	}
	// ZigBee (8 Msps captures).
	if w.Rate == (zigbee.Config{}).SampleRate() {
		if _, score := zigbee.Synchronize(w, zigbee.Config{}, maxOffset); score >= dsp.SyncThreshold {
			if fr, err := zigbee.ReceiveFrame(w, zigbee.Config{}, maxOffset); err == nil {
				consider(&UniversalFrame{
					Protocol:    radio.ProtocolZigBee,
					Payload:     fr.Payload,
					StartSample: fr.SFDSample,
					SyncScore:   score,
				})
			}
		}
		if _, score := ble.Synchronize(w, ble.Config{}, maxOffset); score >= dsp.SyncThreshold {
			if fr, err := ble.ReceiveFrame(w, ble.Config{}, maxOffset); err == nil {
				consider(&UniversalFrame{
					Protocol:    radio.ProtocolBLE,
					Payload:     fr.PDU,
					StartSample: fr.StartSample,
					SyncScore:   score,
				})
			}
		}
	}
	// 802.11b (22 Msps captures).
	if w.Rate == (dsss.Config{}).SampleRate() {
		if _, score := dsss.Synchronize(w, dsss.Config{}, maxOffset); score >= dsp.SyncThreshold {
			if fr, err := dsss.ReceiveFrame(w, dsss.Config{}, maxOffset); err == nil {
				consider(&UniversalFrame{
					Protocol:    radio.Protocol80211b,
					Payload:     fr.Payload,
					StartSample: fr.StartSample,
					SyncScore:   score,
				})
			}
		}
	}
	if best == nil {
		return nil, ErrNoFrameFound
	}
	return best, nil
}

// ChooseMode picks the overlay operating mode for an application's
// requirements: the smallest κ (most productive data) whose tag rate
// still meets requiredTagKbps under the given link and traffic, falling
// back to Mode3 (maximum tag rate) if none does. ok reports whether the
// requirement is met by the returned mode.
func ChooseMode(l *Link, d float64, tr overlay.Traffic, requiredTagKbps float64) (overlay.Mode, bool) {
	for _, m := range []overlay.Mode{overlay.Mode1, overlay.Mode2, overlay.Mode3} {
		if l.Throughput(d, m, tr).TagKbps >= requiredTagKbps {
			return m, true
		}
	}
	return overlay.Mode3, false
}
