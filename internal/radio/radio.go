// Package radio defines the types shared by every layer of the multiscatter
// simulator: protocol identifiers, complex-baseband waveforms, packets, and
// the bit-level utilities (scramblers, whitening, CRCs) the four PHYs need.
package radio

import (
	"fmt"
	"time"
)

// Protocol identifies one of the 2.4 GHz excitation protocols the
// multiscatter tag understands, in the order the paper's ordered matching
// tests them (ZigBee first, 802.11n last).
type Protocol int

const (
	// ProtocolUnknown is the zero value: no protocol identified.
	ProtocolUnknown Protocol = iota
	// ProtocolZigBee is IEEE 802.15.4 O-QPSK DSSS at 250 kbps.
	ProtocolZigBee
	// ProtocolBLE is Bluetooth Low Energy GFSK at 1 Mbps.
	ProtocolBLE
	// Protocol80211b is 802.11b DSSS/CCK (1–11 Mbps).
	Protocol80211b
	// Protocol80211n is 802.11n OFDM (MCS 0 unless stated otherwise).
	Protocol80211n
)

// Protocols lists the four identifiable protocols in ordered-matching order.
var Protocols = []Protocol{ProtocolZigBee, ProtocolBLE, Protocol80211b, Protocol80211n}

// String returns the paper's name for the protocol.
func (p Protocol) String() string {
	switch p {
	case ProtocolZigBee:
		return "ZigBee"
	case ProtocolBLE:
		return "BLE"
	case Protocol80211b:
		return "802.11b"
	case Protocol80211n:
		return "802.11n"
	case ProtocolUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Valid reports whether p is one of the four identifiable protocols.
func (p Protocol) Valid() bool {
	return p >= ProtocolZigBee && p <= Protocol80211n
}

// Waveform is a complex-baseband signal with its sample rate. The carrier
// (2.4 GHz) is implicit: all processing happens at baseband, and the
// per-channel center-frequency offset within the ISM band is tracked
// separately by the channel layer.
type Waveform struct {
	// IQ holds the complex baseband samples.
	IQ []complex128
	// Rate is the sample rate in samples per second.
	Rate float64
}

// Duration returns the time span of the waveform.
func (w Waveform) Duration() time.Duration {
	if w.Rate <= 0 {
		return 0
	}
	return time.Duration(float64(len(w.IQ)) / w.Rate * float64(time.Second))
}

// Clone returns a deep copy of the waveform.
func (w Waveform) Clone() Waveform {
	iq := make([]complex128, len(w.IQ))
	copy(iq, w.IQ)
	return Waveform{IQ: iq, Rate: w.Rate}
}

// SampleIndex returns the sample index corresponding to time t from the
// start of the waveform, clamped to [0, len(IQ)].
func (w Waveform) SampleIndex(t time.Duration) int {
	i := int(t.Seconds() * w.Rate)
	if i < 0 {
		return 0
	}
	if i > len(w.IQ) {
		return len(w.IQ)
	}
	return i
}

// Packet is a protocol data unit at the bit level, before modulation or
// after demodulation.
type Packet struct {
	// Protocol the packet belongs to.
	Protocol Protocol
	// Payload bits, MSB-first per byte boundary where byte structure
	// matters (preambles and headers are added by the PHYs).
	Payload []byte
}

// Bits expands the payload into individual bits, LSB-first within each
// byte, which is the transmission order of all four protocols' PHYs
// (802.11, BLE and 802.15.4 all transmit least-significant bit first).
func (p Packet) Bits() []byte {
	return BytesToBits(p.Payload)
}

// BytesToBits expands bytes to bits, LSB-first within each byte.
func BytesToBits(data []byte) []byte {
	bits := make([]byte, 0, len(data)*8)
	for _, b := range data {
		for i := 0; i < 8; i++ {
			bits = append(bits, (b>>uint(i))&1)
		}
	}
	return bits
}

// BitsToBytes packs bits (LSB-first per byte) back into bytes. Trailing
// bits that do not fill a byte are packed into a final partial byte.
func BitsToBytes(bits []byte) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b&1 != 0 {
			out[i/8] |= 1 << uint(i%8)
		}
	}
	return out
}

// XORBits returns a XOR b element-wise over the shorter length.
func XORBits(a, b []byte) []byte {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		out[i] = (a[i] ^ b[i]) & 1
	}
	return out
}

// HammingDistance counts differing bits between a and b over the shorter
// length plus the length difference (missing bits count as errors).
func HammingDistance(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	d := 0
	for i := 0; i < n; i++ {
		if a[i]&1 != b[i]&1 {
			d++
		}
	}
	if len(a) > n {
		d += len(a) - n
	}
	if len(b) > n {
		d += len(b) - n
	}
	return d
}

// BitErrorRate returns HammingDistance(a, b) normalized by max(len(a),
// len(b)), or 0 when both are empty.
func BitErrorRate(a, b []byte) float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	return float64(HammingDistance(a, b)) / float64(n)
}
