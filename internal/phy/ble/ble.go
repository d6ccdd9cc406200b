// Package ble implements the Bluetooth Low Energy LE 1M physical layer at
// complex baseband: GFSK modulation (BT = 0.5, modulation index 0.5, so
// f1 − f0 = 500 kHz at 1 Msym/s), the 0xAA preamble, the advertising
// access address 0x8E89BED6, data whitening, and the 24-bit CRC.
//
// The demodulator models a commodity BLE receiver: a channel-selection
// lowpass filter followed by a limiter-discriminator and per-symbol
// integrate-and-dump. The channel filter is what makes multiscatter's
// FSK tag modulation work — the tag's ±Δf backscatter sidebands fall so
// that exactly one sideband survives the filter, flipping the symbol.
package ble

import (
	"errors"
	"math"
	"time"

	"multiscatter/internal/dsp"
	"multiscatter/internal/radio"
)

const (
	// SymbolRate is the LE 1M symbol rate.
	SymbolRate = 1e6
	// Deviation is the nominal frequency deviation: ±250 kHz, so
	// f1 − f0 = 500 kHz (modulation index 0.5).
	Deviation = 250e3
	// AccessAddressAdv is the fixed access address of advertising
	// channel packets.
	AccessAddressAdv = 0x8E89BED6
	// PreambleByte is the LE 1M preamble 0xAA (alternating 0/1 starting
	// with 0, LSB-first).
	PreambleByte = 0xAA
)

// Config parameterizes the BLE modem.
type Config struct {
	// SamplesPerSymbol is the oversampling factor (default 8 → 8 Msps).
	SamplesPerSymbol int
	// Channel is the BLE channel index used for whitening (default 37,
	// the first advertising channel).
	Channel int
	// NoWhitening disables data whitening; the overlay carrier generator
	// uses this so on-air symbol repetitions stay identical.
	NoWhitening bool
	// ChannelFilterHz is the receiver channel-selection filter cutoff
	// (default 650 kHz).
	ChannelFilterHz float64
}

func (c Config) sps() int {
	if c.SamplesPerSymbol <= 0 {
		return 8
	}
	return c.SamplesPerSymbol
}

func (c Config) channel() int {
	if c.Channel == 0 {
		return 37
	}
	return c.Channel
}

func (c Config) filterHz() float64 {
	if c.ChannelFilterHz <= 0 {
		return 650e3
	}
	return c.ChannelFilterHz
}

// SampleRate returns the waveform sample rate under this config.
func (c Config) SampleRate() float64 { return SymbolRate * float64(c.sps()) }

// FrameInfo describes the sample layout of a modulated BLE frame.
type FrameInfo struct {
	// SampleRate of the waveform.
	SampleRate float64
	// PreambleEnd is one past the last preamble sample (8 µs).
	PreambleEnd int
	// AccessEnd is one past the last access-address sample (40 µs).
	AccessEnd int
	// SymbolStart[i] is the first sample of PDU symbol (bit) i.
	SymbolStart []int
	// SamplesPerSymbol is the symbol length in samples.
	SamplesPerSymbol int
	// PayloadBits counts the PDU bits (whitened on air), excluding CRC.
	PayloadBits int
}

// NumSymbols returns the number of PDU symbols (including CRC bits).
func (f *FrameInfo) NumSymbols() int { return len(f.SymbolStart) }

// Modulator synthesizes BLE baseband frames.
type Modulator struct {
	cfg    Config
	shaper []float64
}

// NewModulator returns a modulator for cfg.
func NewModulator(cfg Config) *Modulator {
	return &Modulator{
		cfg:    cfg,
		shaper: dsp.GaussianTaps(0.5, cfg.sps(), 3),
	}
}

// FrameBits returns the full on-air bit sequence for pkt: preamble,
// access address, PDU (payload) and CRC, with whitening applied to
// PDU+CRC unless disabled.
func (m *Modulator) FrameBits(pkt radio.Packet) []byte {
	bits := radio.BytesToBits([]byte{PreambleByte})
	aa := make([]byte, 32)
	const addr uint32 = AccessAddressAdv
	for i := 0; i < 32; i++ {
		aa[i] = byte((addr >> uint(i)) & 1)
	}
	bits = append(bits, aa...)
	pdu := radio.BytesToBits(pkt.Payload)
	crc := radio.CRC24BLE(pdu, 0x555555)
	for i := 23; i >= 0; i-- { // CRC transmitted MSB first
		pdu = append(pdu, byte((crc>>uint(i))&1))
	}
	if !m.cfg.NoWhitening {
		radio.WhitenBLE(pdu, m.cfg.channel())
	}
	return append(bits, pdu...)
}

// Modulate synthesizes the GFSK waveform for pkt and its layout.
func (m *Modulator) Modulate(pkt radio.Packet) (radio.Waveform, *FrameInfo) {
	obsModulated.Inc()
	defer obsModulate.ObserveSince(time.Now())
	sps := m.cfg.sps()
	rate := m.cfg.SampleRate()
	bits := m.FrameBits(pkt)

	// NRZ, upsample, Gaussian-shape, integrate phase. The intermediate
	// stages live in pooled scratch; only the returned IQ escapes.
	pool := &dsp.SharedPool
	nrz := pool.GetFloat(len(bits))
	for i, b := range bits {
		if b == 1 {
			nrz[i] = 1
		} else {
			nrz[i] = -1
		}
	}
	up := dsp.UpsampleHoldFloatInto(pool.GetFloat(len(bits)*sps), nrz, sps)
	shaped := (&dsp.FIR{Taps: m.shaper}).ApplyFloatInto(pool.GetFloat(len(up)), up)
	defer func() {
		pool.PutFloat(nrz)
		pool.PutFloat(up)
		pool.PutFloat(shaped)
	}()

	iq := make([]complex128, len(shaped))
	phase := 0.0
	step := 2 * math.Pi * Deviation / rate
	for i, f := range shaped {
		phase += step * f
		iq[i] = complex(math.Cos(phase), math.Sin(phase))
	}

	info := &FrameInfo{
		SampleRate:       rate,
		PreambleEnd:      8 * sps,
		AccessEnd:        40 * sps,
		SamplesPerSymbol: sps,
		PayloadBits:      len(pkt.Payload) * 8,
	}
	for i := 40; i < len(bits); i++ {
		info.SymbolStart = append(info.SymbolStart, i*sps)
	}
	return radio.Waveform{IQ: iq, Rate: rate}, info
}

// Demodulator recovers BLE bits from a frame-aligned waveform. It owns
// reusable scratch buffers, so a steady-state Demodulate performs zero
// heap allocations; it is not safe for concurrent use.
type Demodulator struct {
	cfg    Config
	filter *dsp.FIR

	// Scratch reused across calls: first call sizes them, steady state is
	// allocation-free.
	filtered []complex128
	freq     []float64
	bits     []byte
}

// NewDemodulator returns a demodulator matching cfg.
func NewDemodulator(cfg Config) *Demodulator {
	norm := cfg.filterHz() / cfg.SampleRate()
	// Keep the filter span to ±1 symbol: tag-induced frequency
	// transitions then smear at most one neighbouring symbol, matching
	// the edge-symbol corruption the paper reports (and absorbs with
	// γ-symbol runs plus majority voting).
	return &Demodulator{
		cfg:    cfg,
		filter: dsp.NewLowpass(norm, 2*cfg.sps()+1),
	}
}

// ErrShortWaveform is returned when the waveform cannot contain the frame.
var ErrShortWaveform = errors.New("ble: waveform shorter than frame")

// Demodulate recovers the de-whitened PDU bits (payload + 24 CRC bits)
// from w using layout info. The returned slice aliases demodulator
// scratch and is valid until the next Demodulate call; callers that
// retain it must copy.
func (d *Demodulator) Demodulate(w radio.Waveform, info *FrameInfo) ([]byte, error) {
	obsDemodulated.Inc()
	defer obsDemodulate.ObserveSince(time.Now())
	if n := info.NumSymbols(); n > 0 {
		if info.SymbolStart[n-1]+info.SamplesPerSymbol > len(w.IQ) {
			return nil, ErrShortWaveform
		}
	}
	d.filtered = dsp.GrowComplex(d.filtered, len(w.IQ))
	filtered := d.filter.ApplyInto(d.filtered, w.IQ)
	d.freq = dsp.GrowFloat(d.freq, len(filtered))
	freq := discriminateInto(d.freq, filtered, w.Rate)
	sps := info.SamplesPerSymbol
	if cap(d.bits) < info.NumSymbols() {
		d.bits = make([]byte, 0, info.NumSymbols())
	}
	bits := d.bits[:0]
	for _, start := range info.SymbolStart {
		// Integrate the middle half of the symbol to dodge ISI at the
		// Gaussian-shaped transitions.
		lo := start + sps/4
		hi := start + sps - sps/4
		if hi > len(freq) {
			hi = len(freq)
		}
		var acc float64
		for i := lo; i < hi; i++ {
			acc += freq[i]
		}
		if acc >= 0 {
			bits = append(bits, 1)
		} else {
			bits = append(bits, 0)
		}
	}
	if !d.cfg.NoWhitening {
		radio.WhitenBLE(bits, d.cfg.channel())
	}
	d.bits = bits
	return bits, nil
}

// discriminateInto converts IQ samples to instantaneous frequency (Hz)
// via the phase difference of consecutive samples, writing them into dst
// (len(iq) capacity).
func discriminateInto(dst []float64, iq []complex128, rate float64) []float64 {
	out := dst[:len(iq)]
	for i := 1; i < len(iq); i++ {
		c := iq[i] * complex(real(iq[i-1]), -imag(iq[i-1]))
		out[i] = math.Atan2(imag(c), real(c)) * rate / (2 * math.Pi)
	}
	if len(out) > 1 {
		out[0] = out[1]
	} else if len(out) == 1 {
		out[0] = 0
	}
	return out
}

// TagShift applies multiscatter's FSK tag modulation to the samples of one
// symbol: backscatter mixing with a Δf square wave creates both ±Δf
// sidebands. We model the double-sideband product 2·cos(2πΔf·t), whose
// surviving in-band sideband after the receiver's channel filter flips the
// GFSK symbol (f0 ↔ f1 for Δf = 500 kHz).
func TagShift(iq []complex128, rate, deltaHz float64, startSample int) {
	for i := range iq {
		t := float64(startSample+i) / rate
		c := 2 * math.Cos(2*math.Pi*deltaHz*t)
		iq[i] *= complex(c, 0)
	}
}
