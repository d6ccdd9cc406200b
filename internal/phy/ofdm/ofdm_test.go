package ofdm

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"multiscatter/internal/channel"
	"multiscatter/internal/radio"
)

func TestDataSubcarrierLayout(t *testing.T) {
	if DataSubcarriers() != 52 {
		t.Fatalf("data subcarriers = %d, want 52 (HT-20)", DataSubcarriers())
	}
	for _, k := range dataSubcarriers {
		if k == 0 {
			t.Fatal("DC must not be a data subcarrier")
		}
		for _, p := range pilotSubcarriers {
			if k == p {
				t.Fatalf("pilot %d used as data", p)
			}
		}
		if k < -28 || k > 28 {
			t.Fatalf("subcarrier %d out of HT-20 range", k)
		}
	}
}

func roundTrip(t *testing.T, cfg Config, payload []byte) {
	t.Helper()
	mod := NewModulator(cfg)
	w, info := mod.Modulate(radio.Packet{Protocol: radio.Protocol80211n, Payload: payload})
	got, err := NewDemodulator(cfg).Demodulate(w, info)
	if err != nil {
		t.Fatalf("%v: %v", cfg.Modulation, err)
	}
	want := radio.BytesToBits(payload)
	if !bytes.Equal(got, want) {
		t.Fatalf("%v: BER %v", cfg.Modulation, radio.BitErrorRate(got, want))
	}
}

func TestRoundTripAllModulations(t *testing.T) {
	payload := []byte("an 802.11n OFDM frame for multiscatter")
	for _, m := range []Modulation{BPSK, QPSK, QAM16} {
		roundTrip(t, Config{Modulation: m}, payload)
	}
}

func TestRoundTripWithChannelGain(t *testing.T) {
	// A flat complex channel gain must be equalized out via the HT-LTF.
	cfg := Config{Modulation: QAM16}
	mod := NewModulator(cfg)
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	w, info := mod.Modulate(radio.Packet{Payload: payload})
	gain := complex(0.3*math.Cos(1.1), 0.3*math.Sin(1.1))
	for i := range w.IQ {
		w.IQ[i] *= gain
	}
	got, err := NewDemodulator(cfg).Demodulate(w, info)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, radio.BytesToBits(payload)) {
		t.Fatal("equalization failed under flat channel gain")
	}
}

func TestRoundTripWithNoise(t *testing.T) {
	cfg := Config{Modulation: BPSK}
	mod := NewModulator(cfg)
	payload := make([]byte, 40)
	rng := rand.New(rand.NewSource(7))
	for i := range payload {
		payload[i] = byte(rng.Intn(256))
	}
	w, info := mod.Modulate(radio.Packet{Payload: payload})
	for i := range w.IQ {
		w.IQ[i] += complex(rng.NormFloat64()*0.15, rng.NormFloat64()*0.15)
	}
	got, err := NewDemodulator(cfg).Demodulate(w, info)
	if err != nil {
		t.Fatal(err)
	}
	if ber := radio.BitErrorRate(got, radio.BytesToBits(payload)); ber != 0 {
		t.Fatalf("BPSK at high SNR should be error-free, BER %v", ber)
	}
}

func TestFrameTiming(t *testing.T) {
	mod := NewModulator(Config{Modulation: BPSK})
	w, info := mod.Modulate(radio.Packet{Payload: make([]byte, 100)})
	// Legacy preamble: L-STF 8µs + L-LTF 8µs + L-SIG 4µs = 20 µs.
	legacyUS := float64(info.LegacyEnd) / w.Rate * 1e6
	if math.Abs(legacyUS-20) > 1e-9 {
		t.Fatalf("legacy preamble = %v µs, want 20", legacyUS)
	}
	// HT part: HT-SIG 8 + HT-STF 4 + HT-LTF 4 = 16 µs more.
	preUS := float64(info.PreambleEnd) / w.Rate * 1e6
	if math.Abs(preUS-36) > 1e-9 {
		t.Fatalf("full preamble = %v µs, want 36", preUS)
	}
	// Data symbols are 4 µs each.
	if info.SamplesPerSymbol != 80 {
		t.Fatalf("samples/symbol = %d", info.SamplesPerSymbol)
	}
	// 800 bits / 52 bpsc = 16 symbols (uncoded BPSK).
	if got := info.NumSymbols(); got != 16 {
		t.Fatalf("symbols = %d, want 16", got)
	}
	for i := 1; i < len(info.SymbolStart); i++ {
		if info.SymbolStart[i]-info.SymbolStart[i-1] != 80 {
			t.Fatal("data symbols not contiguous")
		}
	}
}

func TestSTFPeriodicity(t *testing.T) {
	// The L-STF must be periodic with 16-sample (0.8 µs) period — that is
	// the envelope signature identification keys on.
	mod := NewModulator(Config{})
	w, _ := mod.Modulate(radio.Packet{Payload: []byte{0}})
	stf := w.IQ[:160]
	for i := 16; i < len(stf); i++ {
		if d := stf[i] - stf[i-16]; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("L-STF not 16-periodic at sample %d", i)
		}
	}
}

func TestOverlaySymbolFlipFlipsAllBits(t *testing.T) {
	// Phase-flipping one uncoded BPSK OFDM symbol must flip exactly that
	// symbol's 52 bits — the linearity-of-IFFT property overlay
	// modulation relies on for 802.11n carriers.
	cfg := Config{Modulation: BPSK}
	payload := make([]byte, 26) // 208 bits = 4 symbols
	mod := NewModulator(cfg)
	w, info := mod.Modulate(radio.Packet{Payload: payload})
	k := 1
	start := info.SymbolStart[k]
	for i := start; i < start+info.SamplesPerSymbol; i++ {
		w.IQ[i] = -w.IQ[i]
	}
	got, err := NewDemodulator(cfg).Demodulate(w, info)
	if err != nil {
		t.Fatal(err)
	}
	want := radio.BytesToBits(payload)
	for i := range got {
		sym := i / 52
		flipped := got[i] != want[i]
		if sym == k && !flipped {
			t.Fatalf("bit %d in flipped symbol not flipped", i)
		}
		if sym != k && flipped {
			t.Fatalf("bit %d outside flipped symbol flipped", i)
		}
	}
}

func TestModulationMeta(t *testing.T) {
	if BPSK.BitsPerSubcarrier() != 1 || QPSK.BitsPerSubcarrier() != 2 || QAM16.BitsPerSubcarrier() != 4 {
		t.Fatal("BitsPerSubcarrier wrong")
	}
	for _, m := range []Modulation{BPSK, QPSK, QAM16, Modulation(9)} {
		if m.String() == "" {
			t.Fatal("empty String()")
		}
	}
}

func TestDemodulateShortWaveform(t *testing.T) {
	cfg := Config{Modulation: BPSK}
	mod := NewModulator(cfg)
	w, info := mod.Modulate(radio.Packet{Payload: []byte{1, 2, 3}})
	w.IQ = w.IQ[:info.PreambleEnd-1]
	if _, err := NewDemodulator(cfg).Demodulate(w, info); err == nil {
		t.Fatal("expected error for truncated waveform")
	}
}

func TestConstellationRoundTrip(t *testing.T) {
	for _, m := range []Modulation{BPSK, QPSK, QAM16} {
		n := m.BitsPerSubcarrier()
		for v := 0; v < 1<<uint(n); v++ {
			bits := make([]byte, n)
			for i := range bits {
				bits[i] = byte((v >> uint(i)) & 1)
			}
			pt := mapConstellation(m, bits)
			got := appendDemap(nil, m, pt)
			if !bytes.Equal(got, bits) {
				t.Fatalf("%v: bits %v -> %v -> %v", m, bits, pt, got)
			}
		}
	}
}

func TestConstellationUnitPower(t *testing.T) {
	for _, m := range []Modulation{BPSK, QPSK, QAM16} {
		n := m.BitsPerSubcarrier()
		var p float64
		count := 1 << uint(n)
		for v := 0; v < count; v++ {
			bits := make([]byte, n)
			for i := range bits {
				bits[i] = byte((v >> uint(i)) & 1)
			}
			pt := mapConstellation(m, bits)
			p += real(pt)*real(pt) + imag(pt)*imag(pt)
		}
		p /= float64(count)
		if math.Abs(p-1) > 1e-9 {
			t.Errorf("%v: average constellation power %v, want 1", m, p)
		}
	}
}

func TestRoundTripMultipath(t *testing.T) {
	// The HT-LTF equalizer must cope with a frequency-selective indoor
	// channel (50 ns RMS delay spread), BPSK.
	cfg := Config{Modulation: BPSK}
	mod := NewModulator(cfg)
	payload := make([]byte, 30)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	w, info := mod.Modulate(radio.Packet{Payload: payload})
	mp := channel.NewIndoorMultipath(rand.New(rand.NewSource(12)), 50e-9, SampleRate)
	w.IQ = mp.Apply(w.IQ)
	rng := rand.New(rand.NewSource(13))
	for i := range w.IQ {
		w.IQ[i] += complex(rng.NormFloat64()*0.03, rng.NormFloat64()*0.03)
	}
	got, err := NewDemodulator(cfg).Demodulate(w, info)
	if err != nil {
		t.Fatal(err)
	}
	if ber := radio.BitErrorRate(got, radio.BytesToBits(payload)); ber > 0 {
		t.Fatalf("multipath BER = %v, want 0 with equalization", ber)
	}
}
