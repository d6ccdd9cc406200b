package radio

// Scrambler80211b implements the 802.11b self-synchronizing scrambler with
// polynomial z^7 + z^4 + 1 (IEEE 802.11-2016 §16.2.4). The long preamble's
// 128 "scrambled 1s" come out of this scrambler seeded with 0x1B.
type Scrambler80211b struct {
	state byte // 7-bit shift register
}

// NewScrambler80211b returns a scrambler seeded with the standard long
// preamble seed 0x1B (so the SYNC field of all 1s scrambles to the
// canonical pattern).
func NewScrambler80211b() *Scrambler80211b {
	return &Scrambler80211b{state: 0x1B}
}

// Scramble scrambles one bit and advances the register.
func (s *Scrambler80211b) Scramble(bit byte) byte {
	bit &= 1
	// Feedback taps at positions 4 and 7 (1-indexed from the most recent).
	fb := ((s.state >> 3) ^ (s.state >> 6)) & 1
	out := bit ^ fb
	s.state = ((s.state << 1) | out) & 0x7F
	return out
}

// ScrambleBits scrambles a bit slice, returning a new slice.
func (s *Scrambler80211b) ScrambleBits(bits []byte) []byte {
	out := make([]byte, len(bits))
	for i, b := range bits {
		out[i] = s.Scramble(b)
	}
	return out
}

// Descramble reverses the scrambler (self-synchronizing: the descrambler
// state is the received bit stream itself).
func (s *Scrambler80211b) Descramble(bit byte) byte {
	bit &= 1
	fb := ((s.state >> 3) ^ (s.state >> 6)) & 1
	out := bit ^ fb
	s.state = ((s.state << 1) | bit) & 0x7F
	return out
}

// DescrambleBits descrambles a bit slice, returning a new slice.
func (s *Scrambler80211b) DescrambleBits(bits []byte) []byte {
	out := make([]byte, len(bits))
	for i, b := range bits {
		out[i] = s.Descramble(b)
	}
	return out
}

// DescrambleBitsInPlace descrambles bits in place and returns bits. Safe
// because each output bit depends only on the register state and the
// input bit being replaced.
func (s *Scrambler80211b) DescrambleBitsInPlace(bits []byte) []byte {
	for i, b := range bits {
		bits[i] = s.Descramble(b)
	}
	return bits
}

// WhitenBLE applies (or removes — the operation is an involution) BLE data
// whitening to bits in place and returns bits. The whitener is the 7-bit
// LFSR x^7 + x^4 + 1 seeded from the channel index with bit 6 forced to 1
// (Bluetooth Core Spec Vol 6 Part B §3.2).
func WhitenBLE(bits []byte, channel int) []byte {
	state := byte(channel&0x3F) | 0x40
	for i := range bits {
		out := (state >> 6) & 1
		bits[i] = (bits[i] ^ out) & 1
		// x^7 + x^4 + 1: new bit0 = bit6, bit4 ^= bit6.
		b6 := (state >> 6) & 1
		state = ((state << 1) | b6) & 0x7F
		state ^= b6 << 4
	}
	return bits
}

// CRC24BLE computes the 24-bit BLE CRC over bits (LSB-first order) with the
// given 24-bit init value (0x555555 for advertising channel packets). The
// polynomial is x^24 + x^10 + x^9 + x^6 + x^4 + x^3 + x + 1.
func CRC24BLE(bits []byte, init uint32) uint32 {
	crc := init & 0xFFFFFF
	for _, bit := range bits {
		fb := ((crc >> 23) & 1) ^ uint32(bit&1)
		crc = (crc << 1) & 0xFFFFFF
		if fb != 0 {
			crc ^= 0x00065B // taps 10,9,6,4,3,1,0
		}
	}
	return crc
}

// CRC16CCITT computes the CRC-16/CCITT-FALSE over data, as used by the
// IEEE 802.15.4 MAC FCS (init 0x0000, poly 0x1021, reflected I/O per
// 802.15.4; we use the simple bitwise form over LSB-first bits).
func CRC16CCITT(data []byte) uint16 {
	var crc uint16
	for _, b := range data {
		for i := 0; i < 8; i++ {
			bit := (b >> uint(i)) & 1
			fb := (crc & 1) ^ uint16(bit)
			crc >>= 1
			if fb != 0 {
				crc ^= 0x8408 // reversed 0x1021
			}
		}
	}
	return crc
}
