// Package ofdm implements an IEEE 802.11n (HT, 20 MHz) physical layer at
// complex baseband: the legacy L-STF/L-LTF/L-SIG preamble, the HT-SIG,
// HT-STF and HT-LTF fields, and uncoded OFDM data symbols with BPSK,
// QPSK or 16-QAM subcarrier mapping over a 64-point IFFT with an 800 ns
// guard interval. The data field carries raw symbol decisions, which is
// what overlay modulation reads.
//
// As with package dsss, the modulator reports per-symbol sample
// boundaries: the multiscatter overlay layer flips the phase of whole OFDM
// symbols (IFFT is linear, so a π phase shift of the time-domain symbol
// flips every subcarrier's constellation point).
package ofdm

import (
	"errors"
	"fmt"
	"math"
	"time"

	"multiscatter/internal/dsp"
	"multiscatter/internal/radio"
)

const (
	// FFTSize is the 20 MHz 802.11 OFDM FFT length.
	FFTSize = 64
	// GuardSamples is the 800 ns guard interval at 20 Msps.
	GuardSamples = 16
	// SymbolSamples is the 4 µs OFDM symbol length at 20 Msps.
	SymbolSamples = FFTSize + GuardSamples
	// SampleRate is the baseband sample rate in samples/s.
	SampleRate = 20e6
)

// Modulation selects the subcarrier constellation of the data field.
type Modulation int

const (
	// BPSK is 1 bit per subcarrier.
	BPSK Modulation = iota
	// QPSK is 2 bits per subcarrier.
	QPSK
	// QAM16 is 4 bits per subcarrier.
	QAM16
)

// String names the modulation as in the paper's Figure 17.
func (m Modulation) String() string {
	switch m {
	case BPSK:
		return "OFDM-BPSK"
	case QPSK:
		return "OFDM-QPSK"
	case QAM16:
		return "OFDM-16QAM"
	default:
		return fmt.Sprintf("Modulation(%d)", int(m))
	}
}

// BitsPerSubcarrier returns the bits mapped onto one data subcarrier.
func (m Modulation) BitsPerSubcarrier() int {
	switch m {
	case QPSK:
		return 2
	case QAM16:
		return 4
	default:
		return 1
	}
}

// dataSubcarriers lists the HT-20 data subcarrier indices (±1..±28 minus
// the pilots at ±7 and ±21), in increasing frequency order.
var dataSubcarriers = buildDataSubcarriers()

// pilotSubcarriers lists the four pilot positions.
var pilotSubcarriers = []int{-21, -7, 7, 21}

func buildDataSubcarriers() []int {
	var out []int
	for k := -28; k <= 28; k++ {
		if k == 0 || k == -21 || k == -7 || k == 7 || k == 21 {
			continue
		}
		out = append(out, k)
	}
	return out
}

// DataSubcarriers returns the number of data subcarriers per OFDM symbol
// (52 for HT-20).
func DataSubcarriers() int { return len(dataSubcarriers) }

// Config parameterizes the 802.11n modem.
type Config struct {
	// Modulation of the data subcarriers.
	Modulation Modulation
}

// FrameInfo describes the sample layout of a modulated 802.11n frame.
type FrameInfo struct {
	// Config used to build the frame.
	Config Config
	// SampleRate of the waveform (20 Msps).
	SampleRate float64
	// LegacyEnd is one past the last sample of L-STF+L-LTF+L-SIG.
	LegacyEnd int
	// PreambleEnd is one past the last preamble sample (after HT-LTF).
	PreambleEnd int
	// SymbolStart[i] is the first sample of data OFDM symbol i.
	SymbolStart []int
	// SamplesPerSymbol is 80 (4 µs at 20 Msps).
	SamplesPerSymbol int
	// PayloadBits is the number of information bits carried.
	PayloadBits int
}

// NumSymbols returns the data symbol count.
func (f *FrameInfo) NumSymbols() int { return len(f.SymbolStart) }

// lstfSeq is the L-STF frequency-domain sequence over subcarriers -26..26.
var lstfSeq = buildLSTF()

func buildLSTF() map[int]complex128 {
	s := complex(math.Sqrt(13.0/6.0), 0)
	p := complex(1, 1)
	m := map[int]complex128{}
	pos := map[int]complex128{
		-24: p, -20: -p, -16: p, -12: -p, -8: -p, -4: p,
		4: -p, 8: -p, 12: p, 16: p, 20: p, 24: p,
	}
	for k, v := range pos {
		m[k] = s * v
	}
	return m
}

// lltfSeq is the L-LTF frequency-domain sequence over subcarriers -26..26.
var lltfSeq = buildLLTF()

func buildLLTF() map[int]complex128 {
	vals := []float64{
		1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1,
		1, -1, 1, 1, 1, 1, // -26..-1
		1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1,
		-1, 1, -1, 1, 1, 1, 1, // 1..26
	}
	m := map[int]complex128{}
	i := 0
	for k := -26; k <= 26; k++ {
		if k == 0 {
			continue
		}
		m[k] = complex(vals[i], 0)
		i++
	}
	return m
}

// htltfSeq extends the L-LTF to ±28 for the HT-LTF (HT-20).
var htltfSeq = buildHTLTF()

func buildHTLTF() map[int]complex128 {
	m := map[int]complex128{}
	for k, v := range lltfSeq {
		m[k] = v
	}
	m[-28] = 1
	m[-27] = 1
	m[27] = -1
	m[28] = -1
	return m
}

// binIdx maps a signed subcarrier index to its FFT bin.
func binIdx(k int) int {
	if k < 0 {
		return k + FFTSize
	}
	return k
}

// ofdmSymbol converts a frequency-domain map (subcarrier index → value)
// into an 80-sample time-domain symbol with cyclic prefix.
func ofdmSymbol(freq map[int]complex128) []complex128 {
	bins := make([]complex128, FFTSize)
	for k, v := range freq {
		bins[binIdx(k)] = v
	}
	dsp.IFFT(bins)
	// Scale so the average sample power is 1 regardless of occupancy:
	// by Parseval the IFFT output power is occ/N², so multiply by N/√occ.
	occ := float64(len(freq))
	if occ > 0 {
		dsp.Scale(bins, complex(float64(FFTSize)/math.Sqrt(occ), 0))
	}
	out := make([]complex128, 0, SymbolSamples)
	out = append(out, bins[FFTSize-GuardSamples:]...)
	out = append(out, bins...)
	return out
}

// preambleSamples is the HT-mixed preamble's length: L-STF 160, L-LTF
// 160, L-SIG 80, HT-SIG 160, HT-STF 80 and HT-LTF 80 samples.
const preambleSamples = 720

// Modulator synthesizes 802.11n baseband frames. The constant preamble
// fields (L-STF core, L-LTF, L-SIG, HT-LTF) are synthesized once at
// construction; per-packet work is the HT-SIG and the data symbols.
type Modulator struct {
	cfg Config

	// Precomputed preamble material (immutable after construction).
	stfCore []complex128 // 64-sample periodic L-STF/HT-STF core
	ltf     []complex128 // 64-sample L-LTF long training symbol
	lsig    []complex128 // 80-sample L-SIG symbol
	htltf   []complex128 // 80-sample HT-LTF field
}

// NewModulator returns a modulator for cfg.
func NewModulator(cfg Config) *Modulator {
	m := &Modulator{cfg: cfg}
	stf := ofdmSymbol(lstfSeq)
	m.stfCore = stf[GuardSamples:]
	m.ltf = ofdmSymbol(lltfSeq)[GuardSamples:]
	// L-SIG: 24 bits of a fixed pattern, each on two subcarriers — a
	// simplified but envelope-faithful stand-in for the real BCC-coded
	// L-SIG.
	m.lsig = sigSymbol(0x0F1234, func(i int) int { return i / 2 }, 0, 1, -1)
	m.htltf = ofdmSymbol(htltfSeq)
	return m
}

// Modulate synthesizes the frame for pkt and returns the waveform plus its
// layout.
func (m *Modulator) Modulate(pkt radio.Packet) (radio.Waveform, *FrameInfo) {
	obsModulated.Inc()
	defer obsModulate.ObserveSince(time.Now())
	info := &FrameInfo{
		Config:           m.cfg,
		SampleRate:       SampleRate,
		SamplesPerSymbol: SymbolSamples,
	}
	// The bits fix the symbol count, so the waveform is allocated once
	// at its final length.
	bits := radio.BytesToBits(pkt.Payload)
	info.PayloadBits = len(bits)
	perSym := len(dataSubcarriers) * m.cfg.Modulation.BitsPerSubcarrier()
	symbols := (len(bits) + perSym - 1) / perSym
	iq := make([]complex128, 0, preambleSamples+symbols*SymbolSamples)

	// L-STF: two 8 µs periods built from a symbol with period 16; the
	// standard transmits 10 repetitions of the 0.8 µs short symbol = 160
	// samples. The periodic 64-sample core was built at construction.
	core := m.stfCore
	for i := 0; i < 160; i++ {
		iq = append(iq, core[i%FFTSize])
	}
	// L-LTF: 32-sample GI2 + two 64-sample long training symbols.
	ltf := m.ltf
	iq = append(iq, ltf[FFTSize-32:]...)
	iq = append(iq, ltf...)
	iq = append(iq, ltf...)
	// L-SIG: one BPSK OFDM symbol carrying the legacy rate/length (we
	// encode a fixed pattern; its exact contents are irrelevant to the
	// simulation but its envelope matters for identification).
	iq = append(iq, m.lsig...)
	info.LegacyEnd = len(iq)

	// HT-SIG: two QBPSK symbols (BPSK on the imaginary axis).
	for i := 0; i < 2; i++ {
		iq = append(iq, htSigSymbol(uint32(0x2C0000+len(pkt.Payload)), i)...)
	}
	// HT-STF: 4 µs, same construction as L-STF.
	for i := 0; i < 80; i++ {
		iq = append(iq, core[i%FFTSize])
	}
	// HT-LTF: one 4 µs long training field.
	iq = append(iq, m.htltf...)
	info.PreambleEnd = len(iq)

	// Data field: map each symbol's bits straight into a pooled bin
	// scratch and append the time-domain samples.
	bins := dsp.SharedPool.GetComplex(FFTSize)
	defer dsp.SharedPool.PutComplex(bins)
	for off := 0; off < len(bits); off += perSym {
		chunk := bits[off:min(off+perSym, len(bits))]
		info.SymbolStart = append(info.SymbolStart, len(iq))
		iq = m.appendDataSymbol(iq, bins, chunk, len(info.SymbolStart)-1)
	}
	return radio.Waveform{IQ: iq, Rate: SampleRate}, info
}

// sigSymbol builds a BPSK signal-field OFDM symbol over the 48 legacy
// data subcarriers: data subcarrier i carries on where bit shift(i)%24
// of val is 1 and off where it is 0, and the pilots carry the polarity
// of pilot symbol sym.
func sigSymbol(val uint32, shift func(i int) int, sym int, on, off complex128) []complex128 {
	freq := map[int]complex128{}
	i := 0
	for k := -26; k <= 26; k++ {
		switch k {
		case 0:
			continue
		case -21, -7, 7, 21:
			freq[k] = pilotValue(sym, k)
			continue
		}
		if (val>>uint(shift(i)%24))&1 == 1 {
			freq[k] = on
		} else {
			freq[k] = off
		}
		i++
	}
	return ofdmSymbol(freq)
}

// htSigSymbol builds HT-SIG symbol idx: QBPSK, the BPSK constellation
// rotated 90°.
func htSigSymbol(val uint32, idx int) []complex128 {
	return sigSymbol(val, func(i int) int { return i + idx*3 }, idx+1, 1i, -1i)
}

// pilotPolarity is the full 127-element pilot polarity sequence of
// 802.11 (IEEE 802.11-2012 §18.3.5.10, the scrambler-generated p_0..p_126
// cycle). The first 16 values match the truncated cycle this table used
// to hold, so symbols 0..12 of a data field (offset +3) are unchanged;
// deeper symbols now carry the standard polarity — the concurrent joint
// decoder leans on pilots as its per-symbol reference, so the truncated
// cycle would corrupt per-tag separation past symbol 12.
var pilotPolarity = []float64{
	1, 1, 1, 1, -1, -1, -1, 1, -1, -1, -1, -1, 1, 1, -1, 1,
	-1, -1, 1, 1, -1, 1, 1, -1, 1, 1, 1, 1, 1, 1, -1, 1,
	1, 1, -1, 1, 1, -1, -1, 1, 1, 1, -1, 1, -1, -1, -1, 1,
	-1, 1, -1, -1, 1, -1, -1, 1, 1, 1, 1, 1, -1, -1, 1, 1,
	-1, -1, 1, -1, 1, -1, 1, 1, -1, -1, -1, 1, 1, -1, -1, -1,
	-1, 1, -1, -1, 1, -1, 1, 1, 1, 1, -1, 1, -1, 1, -1, 1,
	-1, -1, -1, -1, -1, 1, -1, 1, 1, -1, 1, -1, 1, 1, 1, -1,
	-1, 1, -1, -1, -1, 1, 1, 1, -1, -1, -1, -1, -1, -1, -1,
}

func pilotValue(sym int, k int) complex128 {
	pol := pilotPolarity[sym%len(pilotPolarity)]
	base := 1.0
	if k == 21 { // the +21 pilot carries -1 in the base pattern
		base = -1
	}
	return complex(pol*base, 0)
}

// appendDataSymbol maps one symbol's worth of bits onto the 52
// data subcarriers plus pilots, synthesizes the 80-sample time-domain
// symbol in the bins scratch (len FFTSize) and appends it to iq. It
// replaces the former map-based dataSymbol: the bins are filled directly
// (pilot and data subcarriers are disjoint, so fill order is irrelevant)
// and the occupancy is the constant 56 the map always reached.
func (m *Modulator) appendDataSymbol(iq, bins []complex128, bits []byte, symIdx int) []complex128 {
	for i := range bins {
		bins[i] = 0
	}
	for _, k := range pilotSubcarriers {
		bins[binIdx(k)] = pilotValue(symIdx+3, k)
	}
	bpsc := m.cfg.Modulation.BitsPerSubcarrier()
	for i, k := range dataSubcarriers {
		var chunk []byte
		lo := i * bpsc
		if lo < len(bits) {
			chunk = bits[lo:min(lo+bpsc, len(bits))]
		}
		bins[binIdx(k)] = mapConstellation(m.cfg.Modulation, chunk)
	}
	dsp.IFFT(bins)
	occ := float64(len(pilotSubcarriers) + len(dataSubcarriers))
	dsp.Scale(bins, complex(float64(FFTSize)/math.Sqrt(occ), 0))
	iq = append(iq, bins[FFTSize-GuardSamples:]...)
	iq = append(iq, bins...)
	return iq
}

// mapConstellation maps bits (LSB-first) to a constellation point with
// unit average power. Missing bits are treated as 0.
func mapConstellation(mod Modulation, bits []byte) complex128 {
	b := func(i int) float64 {
		if i < len(bits) && bits[i] == 1 {
			return 1
		}
		return -1
	}
	switch mod {
	case QPSK:
		return complex(b(0)/math.Sqrt2, b(1)/math.Sqrt2)
	case QAM16:
		// Gray-coded 16-QAM, normalization 1/sqrt(10).
		lvl := func(hi, lo float64) float64 {
			// (b_hi, b_lo): (-1,-1)→-3, (-1,1)→-1, (1,1)→1, (1,-1)→3
			if hi < 0 {
				if lo < 0 {
					return -3
				}
				return -1
			}
			if lo < 0 {
				return 3
			}
			return 1
		}
		return complex(lvl(b(0), b(1))/math.Sqrt(10), lvl(b(2), b(3))/math.Sqrt(10))
	default:
		return complex(b(0), 0)
	}
}

// appendDemap appends the hard-sliced bits of a received point to dst.
func appendDemap(dst []byte, mod Modulation, v complex128) []byte {
	bit := func(x float64) byte {
		if x >= 0 {
			return 1
		}
		return 0
	}
	switch mod {
	case QPSK:
		return append(dst, bit(real(v)), bit(imag(v)))
	case QAM16:
		ax := func(x float64) (byte, byte) {
			x *= math.Sqrt(10)
			hi := bit(x)
			var lo byte
			if math.Abs(x) < 2 {
				lo = 1
			}
			return hi, lo
		}
		h0, l0 := ax(real(v))
		h1, l1 := ax(imag(v))
		return append(dst, h0, l0, h1, l1)
	default:
		return append(dst, bit(real(v)))
	}
}

// Demodulator recovers 802.11n data bits from a frame-aligned waveform.
// It owns reusable FFT and channel-estimate scratch, so a steady-state
// Demodulate performs zero heap allocations; it is not safe for
// concurrent use.
type Demodulator struct {
	cfg Config

	// Scratch reused across calls.
	bins  [FFTSize]complex128
	chVal [FFTSize]complex128 // channel estimate by FFT bin
	chOK  [FFTSize]bool
	bits  []byte
}

// NewDemodulator returns a demodulator matching cfg.
func NewDemodulator(cfg Config) *Demodulator {
	return &Demodulator{cfg: cfg}
}

// ErrShortWaveform is returned when the waveform is too short for the
// frame layout.
var ErrShortWaveform = errors.New("ofdm: waveform shorter than frame")

// Demodulate equalizes against the HT-LTF and hard-demaps every data
// symbol, returning the information bits. The returned slice aliases
// demodulator scratch and is valid until the next Demodulate call;
// callers that retain it must copy.
func (d *Demodulator) Demodulate(w radio.Waveform, info *FrameInfo) ([]byte, error) {
	obsDemodulated.Inc()
	defer obsDemodulate.ObserveSince(time.Now())
	if err := d.estimateChannel(w, info); err != nil {
		return nil, err
	}
	n := info.NumSymbols() * len(dataSubcarriers) * d.cfg.Modulation.BitsPerSubcarrier()
	if cap(d.bits) < n {
		d.bits = make([]byte, 0, n)
	}
	bits := d.bits[:0]
	for _, start := range info.SymbolStart {
		bins := fftOfSymbolInto(d.bins[:], w.IQ[start:start+SymbolSamples])
		for _, k := range dataSubcarriers {
			bits = appendDemap(bits, d.cfg.Modulation, d.equalize(k, bins[binIdx(k)]))
		}
	}
	if len(bits) > info.PayloadBits {
		bits = bits[:info.PayloadBits]
	}
	d.bits = bits
	return bits, nil
}

// estimateChannel checks that w holds info's whole frame, then fills the
// per-bin channel estimate from the HT-LTF (the last 80 preamble
// samples), held in flat per-bin arrays instead of a map. Shared by
// Demodulate and the JointDemodulator so both paths equalize
// identically.
func (d *Demodulator) estimateChannel(w radio.Waveform, info *FrameInfo) error {
	if info.PreambleEnd > len(w.IQ) {
		return ErrShortWaveform
	}
	if n := info.NumSymbols(); n > 0 && info.SymbolStart[n-1]+SymbolSamples > len(w.IQ) {
		return ErrShortWaveform
	}
	ltfStart := info.PreambleEnd - SymbolSamples
	est := fftOfSymbolInto(d.bins[:], w.IQ[ltfStart:ltfStart+SymbolSamples])
	for i := range d.chOK {
		d.chOK[i] = false
	}
	for k, ref := range htltfSeq {
		if ref != 0 {
			idx := binIdx(k)
			d.chVal[idx] = est[idx] / ref
			d.chOK[idx] = true
		}
	}
	return nil
}

// safeBin tolerates the out-of-band indices the fallback search can
// produce (|k| up to 31); those bins are never marked present, which
// matches the former map misses.
func safeBin(k int) int { return ((k % FFTSize) + FFTSize) % FFTSize }

// equalize divides a received bin value by the channel estimate for
// subcarrier k, falling back to the nearest estimated subcarrier.
func (d *Demodulator) equalize(k int, v complex128) complex128 {
	idx := safeBin(k)
	if !d.chOK[idx] || d.chVal[idx] == 0 {
		// Fall back to nearest estimated subcarrier.
		for dk := 1; dk < 4; dk++ {
			if i2 := safeBin(k - dk); d.chOK[i2] && d.chVal[i2] != 0 {
				return v / d.chVal[i2]
			}
			if i2 := safeBin(k + dk); d.chOK[i2] && d.chVal[i2] != 0 {
				return v / d.chVal[i2]
			}
		}
		return v
	}
	return v / d.chVal[idx]
}

// fftOfSymbolInto strips the guard interval and FFTs the 64-sample core
// into bins, undoing the modulator's power normalization; bins must have
// FFTSize capacity and is returned filled.
func fftOfSymbolInto(bins []complex128, sym []complex128) []complex128 {
	bins = bins[:FFTSize]
	copy(bins, sym[GuardSamples:])
	dsp.FFT(bins)
	// The modulator scaled by FFTSize/√occ; invert the round trip so a
	// flat channel returns the original constellation. Occupancy for data
	// symbols and the HT-LTF is 56 (52 data + 4 pilots).
	occ := 56.0
	dsp.Scale(bins, complex(math.Sqrt(occ)/FFTSize, 0))
	return bins
}
