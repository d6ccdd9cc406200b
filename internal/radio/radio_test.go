package radio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestProtocolString(t *testing.T) {
	cases := map[Protocol]string{
		ProtocolZigBee:  "ZigBee",
		ProtocolBLE:     "BLE",
		Protocol80211b:  "802.11b",
		Protocol80211n:  "802.11n",
		ProtocolUnknown: "unknown",
		Protocol(99):    "Protocol(99)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestProtocolValid(t *testing.T) {
	for _, p := range Protocols {
		if !p.Valid() {
			t.Errorf("%v should be valid", p)
		}
	}
	if ProtocolUnknown.Valid() || Protocol(17).Valid() {
		t.Error("invalid protocols reported valid")
	}
	if len(Protocols) != 4 {
		t.Fatalf("Protocols has %d entries", len(Protocols))
	}
	// Ordered-matching order from the paper: ZigBee, BLE, 11b, 11n.
	want := []Protocol{ProtocolZigBee, ProtocolBLE, Protocol80211b, Protocol80211n}
	for i := range want {
		if Protocols[i] != want[i] {
			t.Fatalf("Protocols[%d] = %v, want %v", i, Protocols[i], want[i])
		}
	}
}

func TestWaveformDuration(t *testing.T) {
	w := Waveform{IQ: make([]complex128, 20000), Rate: 20e6}
	if got := w.Duration(); got != time.Millisecond {
		t.Fatalf("Duration = %v, want 1ms", got)
	}
	if (Waveform{}).Duration() != 0 {
		t.Fatal("empty waveform duration should be 0")
	}
}

func TestWaveformSampleIndex(t *testing.T) {
	w := Waveform{IQ: make([]complex128, 100), Rate: 1e6}
	if got := w.SampleIndex(50 * time.Microsecond); got != 50 {
		t.Fatalf("SampleIndex = %d, want 50", got)
	}
	if got := w.SampleIndex(-time.Second); got != 0 {
		t.Fatalf("negative time index = %d", got)
	}
	if got := w.SampleIndex(time.Second); got != 100 {
		t.Fatalf("overflow index = %d", got)
	}
}

func TestWaveformClone(t *testing.T) {
	w := Waveform{IQ: []complex128{1, 2}, Rate: 5}
	c := w.Clone()
	c.IQ[0] = 9
	if w.IQ[0] != 1 {
		t.Fatal("Clone aliases the original")
	}
}

func TestBitsRoundTrip(t *testing.T) {
	data := []byte{0xAA, 0x00, 0xFF, 0x5B}
	bits := BytesToBits(data)
	if len(bits) != 32 {
		t.Fatalf("bit count = %d", len(bits))
	}
	// 0xAA LSB-first is 0,1,0,1,0,1,0,1.
	want := []byte{0, 1, 0, 1, 0, 1, 0, 1}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("bit %d = %d, want %d", i, bits[i], want[i])
		}
	}
	if !bytes.Equal(BitsToBytes(bits), data) {
		t.Fatal("BitsToBytes does not invert BytesToBits")
	}
}

func TestXORBitsAndHamming(t *testing.T) {
	a := []byte{1, 0, 1, 1}
	b := []byte{1, 1, 0, 1}
	x := XORBits(a, b)
	want := []byte{0, 1, 1, 0}
	if !bytes.Equal(x, want) {
		t.Fatalf("XORBits = %v", x)
	}
	if d := HammingDistance(a, b); d != 2 {
		t.Fatalf("Hamming = %d", d)
	}
	// Length mismatch counts missing bits as errors.
	if d := HammingDistance([]byte{1, 1, 1}, []byte{1}); d != 2 {
		t.Fatalf("mismatched Hamming = %d", d)
	}
	if ber := BitErrorRate(a, b); ber != 0.5 {
		t.Fatalf("BER = %v", ber)
	}
	if ber := BitErrorRate(nil, nil); ber != 0 {
		t.Fatalf("empty BER = %v", ber)
	}
}

func TestScrambler80211bRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bits := make([]byte, 512)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	tx := NewScrambler80211b()
	scrambled := tx.ScrambleBits(bits)
	rx := NewScrambler80211b()
	got := rx.DescrambleBits(scrambled)
	if !bytes.Equal(got, bits) {
		t.Fatal("descramble does not invert scramble")
	}
	// Scrambling all-ones must not be all ones (that's the whole point of
	// the scrambled SYNC field).
	ones := make([]byte, 128)
	for i := range ones {
		ones[i] = 1
	}
	s := NewScrambler80211b().ScrambleBits(ones)
	if bytes.Equal(s, ones) {
		t.Fatal("scrambled 1s should not be all 1s")
	}
	// And must be balanced-ish: between 30% and 70% ones.
	count := 0
	for _, b := range s {
		count += int(b)
	}
	if count < 38 || count > 90 {
		t.Fatalf("scrambled 1s has %d/128 ones; expected roughly balanced", count)
	}
}

func TestScramblerSelfSynchronizing(t *testing.T) {
	// A descrambler with the WRONG initial state must still recover after
	// 7 bits (register length), because it is self-synchronizing.
	bits := make([]byte, 64)
	for i := range bits {
		bits[i] = byte(i % 2)
	}
	tx := NewScrambler80211b()
	scrambled := tx.ScrambleBits(bits)
	rx := &Scrambler80211b{state: 0x00}
	got := rx.DescrambleBits(scrambled)
	if !bytes.Equal(got[7:], bits[7:]) {
		t.Fatal("descrambler did not resynchronize after 7 bits")
	}
}

func TestWhitenBLEInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bits := make([]byte, 300)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	orig := append([]byte(nil), bits...)
	WhitenBLE(bits, 37)
	if bytes.Equal(bits, orig) {
		t.Fatal("whitening should change the bits")
	}
	WhitenBLE(bits, 37)
	if !bytes.Equal(bits, orig) {
		t.Fatal("whitening twice must restore the input")
	}
	// Different channels whiten differently.
	a := append([]byte(nil), orig...)
	b := append([]byte(nil), orig...)
	WhitenBLE(a, 37)
	WhitenBLE(b, 38)
	if bytes.Equal(a, b) {
		t.Fatal("channels 37 and 38 should whiten differently")
	}
}

func TestCRC24BLEDetectsErrors(t *testing.T) {
	bits := BytesToBits([]byte{0x01, 0x02, 0x03, 0x04})
	crc := CRC24BLE(bits, 0x555555)
	if crc == 0 {
		t.Fatal("CRC unexpectedly zero")
	}
	bits[5] ^= 1
	if CRC24BLE(bits, 0x555555) == crc {
		t.Fatal("single-bit error not detected")
	}
}

func TestCRC16CCITTDetectsErrors(t *testing.T) {
	data := []byte("123456789")
	crc := CRC16CCITT(data)
	// Known check value for CRC-16/KERMIT-style reflected CCITT with
	// init 0: 0x2189.
	if crc != 0x2189 {
		t.Fatalf("CRC16 check = %#04x, want 0x2189", crc)
	}
	data2 := []byte("123456788")
	if CRC16CCITT(data2) == crc {
		t.Fatal("error not detected")
	}
}

func TestPropertyBitsRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(BitsToBytes(BytesToBits(data)), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyXORSelfIsZero(t *testing.T) {
	f := func(data []byte) bool {
		bits := BytesToBits(data)
		for _, b := range XORBits(bits, bits) {
			if b != 0 {
				return false
			}
		}
		return BitErrorRate(bits, bits) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPacketBits(t *testing.T) {
	p := Packet{Protocol: ProtocolBLE, Payload: []byte{0x80}}
	bits := p.Bits()
	if len(bits) != 8 || bits[7] != 1 || bits[0] != 0 {
		t.Fatalf("Packet.Bits = %v", bits)
	}
}
