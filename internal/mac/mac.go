// Package mac builds and parses IEEE 802.15.4 data frames. Overlay
// modulation's "productive data" is real traffic: the framer lets tests
// carry a genuine MAC frame through the overlay and validate its frame
// check sequence end to end.
package mac

import (
	"encoding/binary"
	"errors"

	"multiscatter/internal/radio"
)

// ErrTooShort is returned when a frame cannot contain its fixed fields.
var ErrTooShort = errors.New("mac: frame too short")

// ErrFCS is returned when the frame check sequence does not verify.
var ErrFCS = errors.New("mac: FCS mismatch")

// ZigBeeFrame is a minimal 802.15.4 data frame with short addressing.
type ZigBeeFrame struct {
	// Sequence number.
	Sequence byte
	// PANID of the network.
	PANID uint16
	// Destination and Source short addresses.
	Destination, Source uint16
	// Payload data.
	Payload []byte
}

// zigbeeDataFCF: frame type data, intra-PAN, 16-bit dst + src addressing.
const zigbeeDataFCF = 0x8841

// Marshal serializes the frame with its CRC-16 FCS.
func (f *ZigBeeFrame) Marshal() []byte {
	out := make([]byte, 0, 9+len(f.Payload)+2)
	var hdr [9]byte
	binary.LittleEndian.PutUint16(hdr[0:], zigbeeDataFCF)
	hdr[2] = f.Sequence
	binary.LittleEndian.PutUint16(hdr[3:], f.PANID)
	binary.LittleEndian.PutUint16(hdr[5:], f.Destination)
	binary.LittleEndian.PutUint16(hdr[7:], f.Source)
	out = append(out, hdr[:]...)
	out = append(out, f.Payload...)
	fcs := radio.CRC16CCITT(out)
	return append(out, byte(fcs), byte(fcs>>8))
}

// ParseZigBee parses and FCS-verifies an 802.15.4 data frame.
func ParseZigBee(b []byte) (*ZigBeeFrame, error) {
	if len(b) < 11 {
		return nil, ErrTooShort
	}
	body, tail := b[:len(b)-2], b[len(b)-2:]
	if radio.CRC16CCITT(body) != binary.LittleEndian.Uint16(tail) {
		return nil, ErrFCS
	}
	f := &ZigBeeFrame{
		Sequence:    body[2],
		PANID:       binary.LittleEndian.Uint16(body[3:5]),
		Destination: binary.LittleEndian.Uint16(body[5:7]),
		Source:      binary.LittleEndian.Uint16(body[7:9]),
		Payload:     append([]byte(nil), body[9:]...),
	}
	return f, nil
}

// ProductiveBits packs a marshalled frame into the per-sequence
// productive bits an overlay plan carries (one bit per sequence): the
// frame is the productive payload, bit-serialized LSB-first.
func ProductiveBits(frame []byte) []byte {
	return radio.BytesToBits(frame)
}

// FrameFromProductive reassembles the frame bytes from decoded
// productive bits, trimming to whole bytes.
func FrameFromProductive(bits []byte) []byte {
	n := len(bits) / 8 * 8
	return radio.BitsToBytes(bits[:n])
}
