// Package zigbee implements the IEEE 802.15.4 2.4 GHz physical layer
// (the ZigBee PHY) at complex baseband: 4-bit symbols spread to 32-chip
// PN sequences at 2 Mchip/s, O-QPSK with half-sine pulse shaping and the
// half-chip I/Q offset, the SHR (8 zero symbols + SFD 0xA7) and PHR.
//
// The demodulator models a commodity 802.15.4 receiver: chip matched
// filtering followed by best-match correlation against the 16 predefined
// PN sequences. That best-match behaviour is what makes multiscatter's
// phase-flip tag modulation decodable on ZigBee carriers: a π phase flip
// inverts all chips, which deterministically maps each symbol to the PN
// sequence farthest from it.
package zigbee

import (
	"errors"
	"fmt"
	"math"
	"time"

	"multiscatter/internal/dsp"
	"multiscatter/internal/radio"
)

const (
	// ChipRate is the 2.4 GHz 802.15.4 chip rate.
	ChipRate = 2e6
	// ChipsPerSymbol is the PN sequence length.
	ChipsPerSymbol = 32
	// SFD is the start-of-frame delimiter byte.
	SFD = 0xA7
)

// pnBase is the chip sequence of data symbol 0 (IEEE 802.15.4-2015
// Table 12-1), index 0 transmitted first.
var pnBase = [ChipsPerSymbol]byte{
	1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1,
	0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0,
}

// PN holds the 16 chip sequences indexed by symbol value.
var PN = buildPN()

// pnRef holds the 16 chip sequences as ±1.0 float64 templates, the form
// the despreader correlates against — precomputed once so the demod loop
// is a pure multiply-accumulate over tables.
var pnRef = buildPNRef()

func buildPNRef() [16][ChipsPerSymbol]float64 {
	var out [16][ChipsPerSymbol]float64
	for sym := range PN {
		for i, c := range PN[sym] {
			if c == 0 {
				out[sym][i] = -1
			} else {
				out[sym][i] = 1
			}
		}
	}
	return out
}

// invertedSym[s] is the symbol at maximal chip Hamming distance from s —
// the value a commodity receiver decodes after a π phase flip.
var invertedSym = buildInvertedSym()

func buildInvertedSym() [16]byte {
	var out [16]byte
	for sym := 0; sym < 16; sym++ {
		best, bestDist := byte(0), -1
		for cand := 0; cand < 16; cand++ {
			d := 0
			for i := 0; i < ChipsPerSymbol; i++ {
				if PN[sym][i] != PN[cand][i] {
					d++
				}
			}
			if d > bestDist {
				bestDist, best = d, byte(cand)
			}
		}
		out[sym] = best
	}
	return out
}

func buildPN() [16][ChipsPerSymbol]byte {
	var out [16][ChipsPerSymbol]byte
	for sym := 0; sym < 8; sym++ {
		// Symbols 1..7 are right-rotations of symbol 0 by 4 chips each.
		rot := 4 * sym
		for i := 0; i < ChipsPerSymbol; i++ {
			out[sym][(i+rot)%ChipsPerSymbol] = pnBase[i]
		}
	}
	for sym := 8; sym < 16; sym++ {
		// Symbols 8..15 invert the odd-indexed (Q) chips of 0..7.
		for i := 0; i < ChipsPerSymbol; i++ {
			c := out[sym-8][i]
			if i%2 == 1 {
				c ^= 1
			}
			out[sym][i] = c
		}
	}
	return out
}

// Config parameterizes the ZigBee modem.
type Config struct {
	// SamplesPerChip is the oversampling factor (default 4 → 8 Msps).
	SamplesPerChip int
}

func (c Config) spc() int {
	if c.SamplesPerChip <= 0 {
		return 4
	}
	return c.SamplesPerChip
}

// SampleRate returns the waveform sample rate under this config.
func (c Config) SampleRate() float64 { return ChipRate * float64(c.spc()) }

// FrameInfo describes the sample layout of a modulated 802.15.4 frame.
type FrameInfo struct {
	// SampleRate of the waveform.
	SampleRate float64
	// PreambleEnd is one past the 8-symbol preamble (128 µs).
	PreambleEnd int
	// SHREnd is one past the SFD (the SHR is preamble+SFD, 160 µs).
	SHREnd int
	// SymbolStart[i] is the first sample of payload symbol i (after the
	// PHR).
	SymbolStart []int
	// SamplesPerSymbol is the symbol length in samples (32 chips).
	SamplesPerSymbol int
	// PayloadSymbols counts payload symbols (2 per payload byte).
	PayloadSymbols int
}

// NumSymbols returns the payload symbol count.
func (f *FrameInfo) NumSymbols() int { return len(f.SymbolStart) }

// Modulator synthesizes 802.15.4 baseband frames.
type Modulator struct {
	cfg      Config
	halfSine []float64 // chip pulse, built once per modulator
}

// NewModulator returns a modulator for cfg.
func NewModulator(cfg Config) *Modulator {
	return &Modulator{
		cfg:      cfg,
		halfSine: dsp.HalfSineTaps(2 * cfg.spc()),
	}
}

// symbolsOf splits data bytes into 4-bit symbols, low nibble first.
func symbolsOf(data []byte) []byte {
	out := make([]byte, 0, len(data)*2)
	for _, b := range data {
		out = append(out, b&0x0F, b>>4)
	}
	return out
}

// Modulate synthesizes the O-QPSK waveform for pkt and its layout. The
// frame is SHR (preamble + SFD), PHR (length byte), then the payload.
func (m *Modulator) Modulate(pkt radio.Packet) (radio.Waveform, *FrameInfo) {
	obsModulated.Inc()
	defer obsModulate.ObserveSince(time.Now())
	spc := m.cfg.spc()
	rate := m.cfg.SampleRate()

	var symbols []byte
	symbols = append(symbols, make([]byte, 8)...) // preamble: 8 zero symbols
	preSyms := len(symbols)
	symbols = append(symbols, SFD&0x0F, SFD>>4)
	shrSyms := len(symbols)
	phr := byte(len(pkt.Payload) + 2) // +2 for the (virtual) FCS
	symbols = append(symbols, phr&0x0F, phr>>4)
	payloadStartSym := len(symbols)
	symbols = append(symbols, symbolsOf(pkt.Payload)...)

	// Build the chip stream.
	pool := &dsp.SharedPool
	chips := make([]byte, 0, len(symbols)*ChipsPerSymbol)
	for _, s := range symbols {
		chips = append(chips, PN[s][:]...)
	}

	// O-QPSK with half-sine shaping: even chips on I, odd on Q, Q delayed
	// by half a chip. Each chip's half-sine spans 2 chip periods.
	halfSine := m.halfSine
	n := len(chips)*spc + spc // + half-chip tail for the offset Q
	iSig := pool.GetFloat(n)
	qSig := pool.GetFloat(n)
	for i := range iSig {
		iSig[i] = 0
		qSig[i] = 0
	}
	defer func() {
		pool.PutFloat(iSig)
		pool.PutFloat(qSig)
	}()
	for idx, c := range chips {
		v := 1.0
		if c == 0 {
			v = -1
		}
		var buf []float64
		var off int
		if idx%2 == 0 {
			buf = iSig
			off = (idx / 2) * 2 * spc
		} else {
			buf = qSig
			off = (idx/2)*2*spc + spc // half-chip (Tc/2 of the 2Tc pulse) offset
		}
		for k, p := range halfSine {
			if off+k < len(buf) {
				buf[off+k] += v * p
			}
		}
	}
	iq := make([]complex128, n)
	for i := range iq {
		iq[i] = complex(iSig[i], qSig[i])
	}

	spsym := ChipsPerSymbol * spc
	info := &FrameInfo{
		SampleRate:       rate,
		PreambleEnd:      preSyms * spsym,
		SHREnd:           shrSyms * spsym,
		SamplesPerSymbol: spsym,
		PayloadSymbols:   len(symbols) - payloadStartSym,
	}
	for i := payloadStartSym; i < len(symbols); i++ {
		info.SymbolStart = append(info.SymbolStart, i*spsym)
	}
	return radio.Waveform{IQ: iq, Rate: rate}, info
}

// Demodulator recovers 802.15.4 symbols from a frame-aligned waveform.
// It owns a precomputed chip matched filter and a reusable output buffer,
// so a steady-state Demodulate performs zero heap allocations; it is not
// safe for concurrent use.
type Demodulator struct {
	cfg  Config
	half []float64     // chip matched filter, built once per demodulator
	out  []DemodSymbol // scratch reused across calls
}

// NewDemodulator returns a demodulator matching cfg.
func NewDemodulator(cfg Config) *Demodulator {
	return &Demodulator{
		cfg:  cfg,
		half: dsp.HalfSineTaps(2 * cfg.spc()),
	}
}

// ErrShortWaveform is returned when the waveform cannot contain the frame.
var ErrShortWaveform = errors.New("zigbee: waveform shorter than frame")

// DemodSymbol holds one demodulated payload symbol.
type DemodSymbol struct {
	// Value is the best-match symbol (0..15).
	Value byte
	// Correlation is the normalized chip agreement of the best match,
	// in [-1, 1].
	Correlation float64
}

// Demodulate despreads every payload symbol, returning the best-match
// symbol decisions. The returned slice aliases demodulator scratch and is
// valid until the next Demodulate call; callers that retain it must copy.
func (d *Demodulator) Demodulate(w radio.Waveform, info *FrameInfo) ([]DemodSymbol, error) {
	obsDemodulated.Inc()
	defer obsDemodulate.ObserveSince(time.Now())
	spc := d.cfg.spc()
	if n := info.NumSymbols(); n > 0 {
		// The offset Q branch needs half a chip beyond the last symbol.
		if info.SymbolStart[n-1]+info.SamplesPerSymbol+spc > len(w.IQ) {
			return nil, ErrShortWaveform
		}
	}
	if cap(d.out) < info.NumSymbols() {
		d.out = make([]DemodSymbol, 0, info.NumSymbols())
	}
	out := d.out[:0]
	for _, start := range info.SymbolStart {
		soft := d.despreadChips(w.IQ, start)
		best, bestCorr := 0, math.Inf(-1)
		for sym := 0; sym < 16; sym++ {
			ref := &pnRef[sym]
			var acc float64
			for i := 0; i < ChipsPerSymbol; i++ {
				acc += ref[i] * soft[i]
			}
			if acc > bestCorr {
				bestCorr, best = acc, sym
			}
		}
		norm := 0.0
		for _, v := range soft {
			norm += math.Abs(v)
		}
		corr := 0.0
		if norm > 0 {
			corr = bestCorr / norm
		}
		out = append(out, DemodSymbol{Value: byte(best), Correlation: corr})
	}
	d.out = out
	return out, nil
}

// despreadChips matched-filters the 32 chips of the symbol starting at
// sample start, returning soft chip values (positive → chip 1).
func (d *Demodulator) despreadChips(iq []complex128, start int) [ChipsPerSymbol]float64 {
	spc := d.cfg.spc()
	var soft [ChipsPerSymbol]float64
	half := d.half
	for idx := 0; idx < ChipsPerSymbol; idx++ {
		var off int
		useI := idx%2 == 0
		if useI {
			off = start + (idx/2)*2*spc
		} else {
			off = start + (idx/2)*2*spc + spc
		}
		var acc float64
		for k, p := range half {
			j := off + k
			if j >= len(iq) {
				break
			}
			if useI {
				acc += p * real(iq[j])
			} else {
				acc += p * imag(iq[j])
			}
		}
		soft[idx] = acc
	}
	return soft
}

// DemodulateBits converts symbol decisions back into payload bytes.
func DemodulateBits(symbols []DemodSymbol) []byte {
	out := make([]byte, 0, len(symbols)/2)
	for i := 0; i+1 < len(symbols); i += 2 {
		out = append(out, symbols[i].Value|symbols[i+1].Value<<4)
	}
	return out
}

// InvertedSymbol returns the symbol value a commodity receiver decodes
// when symbol sym's chips are all inverted (a π phase flip of the whole
// O-QPSK symbol): the PN sequence at maximal Hamming distance from sym.
// The mapping is a fixed involution, so reversing tag modulation is a
// table lookup.
func InvertedSymbol(sym byte) byte {
	if sym > 15 {
		panic(fmt.Sprintf("zigbee: symbol %d out of range", sym))
	}
	return invertedSym[sym]
}
