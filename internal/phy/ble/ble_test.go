package ble

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"multiscatter/internal/radio"
)

func TestFrameBitsLayout(t *testing.T) {
	m := NewModulator(Config{})
	payload := []byte{0x42, 0x13}
	bits := m.FrameBits(radio.Packet{Payload: payload})
	// 8 preamble + 32 access + 16 payload + 24 CRC.
	if len(bits) != 80 {
		t.Fatalf("frame bits = %d, want 80", len(bits))
	}
	// Preamble 0xAA LSB-first: 0,1,0,1...
	for i := 0; i < 8; i++ {
		if bits[i] != byte(i%2) {
			t.Fatalf("preamble bit %d = %d", i, bits[i])
		}
	}
	// Access address LSB-first.
	const addr uint32 = AccessAddressAdv
	for i := 0; i < 32; i++ {
		want := byte((addr >> uint(i)) & 1)
		if bits[8+i] != want {
			t.Fatalf("access bit %d = %d, want %d", i, bits[8+i], want)
		}
	}
}

// advPDU frames data as the advertising PDU ReceiveFrame reads: a
// two-byte header whose length byte counts the data, then the data.
func advPDU(data []byte) []byte {
	return append([]byte{0x02, byte(len(data))}, data...)
}

func TestRoundTripClean(t *testing.T) {
	cfg := Config{}
	m := NewModulator(cfg)
	payload := advPDU([]byte("BLE adv payload for multiscatter, 37 bytes!!")[:37])
	w, _ := m.Modulate(radio.Packet{Payload: payload})
	frame, err := ReceiveFrame(w, cfg, 8)
	if err != nil {
		t.Fatalf("demodulate: %v", err)
	}
	if got := radio.BytesToBits(frame.PDU); !bytes.Equal(got, radio.BytesToBits(payload)) {
		t.Fatalf("payload mismatch, BER %v", radio.BitErrorRate(got, radio.BytesToBits(payload)))
	}
}

func TestRoundTripNoWhitening(t *testing.T) {
	cfg := Config{NoWhitening: true}
	m := NewModulator(cfg)
	payload := advPDU([]byte{0x01, 0x02, 0x03})
	w, _ := m.Modulate(radio.Packet{Payload: payload})
	frame, err := ReceiveFrame(w, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame.PDU, payload) {
		t.Fatal("no-whitening round trip failed")
	}
}

func TestRoundTripWithNoise(t *testing.T) {
	cfg := Config{}
	m := NewModulator(cfg)
	payload := advPDU([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x55})
	w, _ := m.Modulate(radio.Packet{Payload: payload})
	rng := rand.New(rand.NewSource(11))
	for i := range w.IQ {
		w.IQ[i] += complex(rng.NormFloat64()*0.1, rng.NormFloat64()*0.1)
	}
	frame, err := ReceiveFrame(w, cfg, 8)
	if err != nil {
		t.Fatalf("demodulate under 20 dB SNR: %v", err)
	}
	if !bytes.Equal(frame.PDU, payload) {
		t.Fatal("noisy round trip failed")
	}
}

func TestCRCDetectsCorruption(t *testing.T) {
	cfg := Config{}
	m := NewModulator(cfg)
	payload := advPDU([]byte{1, 2, 3, 4})
	w, info := m.Modulate(radio.Packet{Payload: payload})
	// Invert a chunk of samples of the data after the PDU header — enough
	// to flip a symbol.
	s := info.SymbolStart[16+10]
	for i := s; i < s+info.SamplesPerSymbol; i++ {
		w.IQ[i] = complex(real(w.IQ[i]), -imag(w.IQ[i])) // conjugate flips frequency
	}
	_, err := ReceiveFrame(w, cfg, 8)
	if !errors.Is(err, ErrCRC) {
		t.Fatalf("err = %v, want ErrCRC", err)
	}
}

func TestFrameTiming(t *testing.T) {
	cfg := Config{}
	m := NewModulator(cfg)
	w, info := m.Modulate(radio.Packet{Payload: make([]byte, 37)})
	if us := float64(info.PreambleEnd) / w.Rate * 1e6; math.Abs(us-8) > 1e-9 {
		t.Fatalf("preamble = %v µs, want 8", us)
	}
	if us := float64(info.AccessEnd) / w.Rate * 1e6; math.Abs(us-40) > 1e-9 {
		t.Fatalf("preamble+AA = %v µs, want 40", us)
	}
	// PDU symbols: 37*8 + 24 CRC = 320.
	if got := info.NumSymbols(); got != 320 {
		t.Fatalf("PDU symbols = %d, want 320", got)
	}
}

func TestConstantEnvelope(t *testing.T) {
	m := NewModulator(Config{})
	w, _ := m.Modulate(radio.Packet{Payload: []byte{0xF0, 0x0F}})
	for i, v := range w.IQ {
		if math.Abs(math.Hypot(real(v), imag(v))-1) > 1e-9 {
			t.Fatalf("sample %d not constant envelope", i)
		}
	}
}

func TestTagShiftFlipsSymbolRuns(t *testing.T) {
	// Multiscatter FSK tag modulation: the ±500 kHz double-sideband shift
	// applied over a γ-symbol run must flip the decoded bits, regardless
	// of whether the underlying bits were 0 or 1 (the receiver's channel
	// filter keeps exactly one sideband). Edge symbols of a run may be
	// corrupted by the frequency transition — the paper reports exactly
	// this and absorbs it with majority voting over the run — so we
	// assert on interior symbols and on symbols ≥2 away from any run.
	cfg := Config{NoWhitening: true}
	m := NewModulator(cfg)
	payload := []byte{0x0F, 0xAA, 0x35, 0xC2} // mix of 0s and 1s
	w, info := m.Modulate(radio.Packet{Payload: payload})
	clean := radio.BytesToBits(payload)

	const gamma = 4
	runs := []int{2, 10, 20} // start symbol of each γ-run
	inRun := map[int]bool{}
	interior := map[int]bool{}
	for _, r := range runs {
		for k := r; k < r+gamma; k++ {
			inRun[k] = true
			if k > r && k < r+gamma-1 {
				interior[k] = true
			}
		}
		s := info.SymbolStart[r]
		e := info.SymbolStart[r+gamma-1] + info.SamplesPerSymbol
		TagShift(w.IQ[s:e], w.Rate, 2*Deviation, s)
	}
	bits, err := NewDemodulator(cfg).Demodulate(w, info)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(clean); i++ {
		switch {
		case interior[i]:
			if bits[i] != clean[i]^1 {
				t.Fatalf("interior run bit %d = %d, want flipped %d", i, bits[i], clean[i]^1)
			}
		case !inRun[i] && !inRun[i-1] && !inRun[i+1]:
			if bits[i] != clean[i] {
				t.Fatalf("far-from-run bit %d = %d, want clean %d", i, bits[i], clean[i])
			}
		}
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	cfg := Config{}
	m := NewModulator(cfg)
	f := func(data []byte) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		if len(data) > 37 {
			data = data[:37]
		}
		payload := advPDU(data)
		w, _ := m.Modulate(radio.Packet{Payload: payload})
		frame, err := ReceiveFrame(w, cfg, 8)
		if err != nil {
			return false
		}
		return bytes.Equal(frame.PDU, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.sps() != 8 || c.channel() != 37 || c.filterHz() != 650e3 {
		t.Fatal("defaults wrong")
	}
	if c.SampleRate() != 8e6 {
		t.Fatalf("SampleRate = %v", c.SampleRate())
	}
}

func TestDemodulateShortWaveform(t *testing.T) {
	cfg := Config{}
	m := NewModulator(cfg)
	w, info := m.Modulate(radio.Packet{Payload: []byte{1, 2, 3}})
	w.IQ = w.IQ[:len(w.IQ)/3]
	if _, err := NewDemodulator(cfg).Demodulate(w, info); err == nil {
		t.Fatal("expected error for truncated waveform")
	}
}
