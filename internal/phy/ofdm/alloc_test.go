package ofdm

import (
	"math"
	"testing"

	"multiscatter/internal/radio"
)

// TestDemodulateZeroAlloc pins the zero-alloc hot path: after the first
// call sizes the demodulator's scratch, a steady-state Demodulate must
// not touch the heap.
func TestDemodulateZeroAlloc(t *testing.T) {
	for _, mod := range []Modulation{BPSK, QPSK, QAM16} {
		t.Run(mod.String(), func(t *testing.T) {
			cfg := Config{Modulation: mod}
			m := NewModulator(cfg)
			d := NewDemodulator(cfg)
			pkt := radio.Packet{Protocol: radio.Protocol80211n, Payload: []byte{0x0F, 0xF0, 0xA5, 0x5A, 0x33, 0xCC}}
			w, info := m.Modulate(pkt)
			if _, err := d.Demodulate(w, info); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := d.Demodulate(w, info); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state Demodulate allocates %v/op, want 0", allocs)
			}
		})
	}
}

// modulateByAppend is Modulate's waveform built the way it was before
// the single allocation: every field appended to a nil slice. It is the
// oracle of TestModulateAllocatesOnce.
func modulateByAppend(m *Modulator, pkt radio.Packet) []complex128 {
	var iq []complex128
	core := m.stfCore
	for i := 0; i < 160; i++ {
		iq = append(iq, core[i%FFTSize])
	}
	iq = append(iq, m.ltf[FFTSize-32:]...)
	iq = append(iq, m.ltf...)
	iq = append(iq, m.ltf...)
	iq = append(iq, m.lsig...)
	for i := 0; i < 2; i++ {
		iq = append(iq, htSigSymbol(uint32(0x2C0000+len(pkt.Payload)), i)...)
	}
	for i := 0; i < 80; i++ {
		iq = append(iq, core[i%FFTSize])
	}
	iq = append(iq, m.htltf...)
	bits := radio.BytesToBits(pkt.Payload)
	perSym := len(dataSubcarriers) * m.cfg.Modulation.BitsPerSubcarrier()
	bins := make([]complex128, FFTSize)
	for off, s := 0, 0; off < len(bits); off, s = off+perSym, s+1 {
		iq = m.appendDataSymbol(iq, bins, bits[off:min(off+perSym, len(bits))], s)
	}
	return iq
}

// TestModulateAllocatesOnce pins Modulate's single waveform allocation:
// the capacity is exactly the frame's length, and the samples are
// bitwise those of the frame built by appending, for BPSK and 16-QAM
// and payloads from empty to many symbols.
func TestModulateAllocatesOnce(t *testing.T) {
	configs := []Config{
		{Modulation: BPSK},
		{Modulation: QAM16},
	}
	for _, cfg := range configs {
		m := NewModulator(cfg)
		for _, n := range []int{0, 1, 6, 300} {
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = byte(i*37 + 11)
			}
			pkt := radio.Packet{Protocol: radio.Protocol80211n, Payload: payload}
			w, info := m.Modulate(pkt)
			if cap(w.IQ) != len(w.IQ) {
				t.Errorf("%+v, %d bytes: cap %d, len %d", cfg, n, cap(w.IQ), len(w.IQ))
			}
			if info.PreambleEnd != preambleSamples {
				t.Errorf("%+v: preamble ends at %d, want %d", cfg, info.PreambleEnd, preambleSamples)
			}
			want := modulateByAppend(m, pkt)
			if len(w.IQ) != len(want) {
				t.Fatalf("%+v, %d bytes: %d samples, want %d", cfg, n, len(w.IQ), len(want))
			}
			for i := range want {
				if math.Float64bits(real(w.IQ[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(w.IQ[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("%+v, %d bytes: sample %d is %v, want %v", cfg, n, i, w.IQ[i], want[i])
				}
			}
		}
	}
}
