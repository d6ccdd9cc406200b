// Concurrent multi-tag OFDM backscatter via subcarrier redundancy.
//
// A single 802.11n excitation frame carries 52 data subcarriers whose
// overlay use is highly redundant (the single-tag overlay majority-votes
// one tag bit across all of them). Following Wu et al., "Exploiting
// subcarrier redundancy for concurrent OFDM backscatter" (time-shifted
// orthogonal codes), that redundancy can instead carry K tags at once:
//
//   - Subcarrier groups: the data subcarriers are partitioned into
//     disjoint contiguous groups and each tag modulates only its group,
//     so up to MaxSubcarrierGroups tags ride one frame in parallel with
//     no mutual interference at all.
//   - Time-shifted orthogonal codes: tags that must share a group
//     additionally spread each chip over L OFDM symbols with mutually
//     orthogonal ±1 code words (rows of a Walsh-Hadamard matrix — the
//     cyclic time-shift construction of Wu et al. yields an equivalent
//     orthogonal family). The receiver separates them by correlating
//     over the code window.
//
// JointDemodulator is the receiver side: one collided symbol stream in,
// K per-tag subcarrier bit streams out. It reuses the scalar
// demodulator's HT-LTF channel estimation and equalization, so a K=1
// full-band assignment is bit-identical to Demodulator.Demodulate — the
// boundary other modems can adopt for their own joint-decode hooks.
package ofdm

import (
	"errors"
	"fmt"
	"math/bits"
	"math/cmplx"

	"multiscatter/internal/dsp"
	"multiscatter/internal/radio"
)

// MaxSubcarrierGroups bounds the disjoint-group partition: below 13
// subcarriers per group the majority vote the overlay layer runs on top
// loses too much redundancy to survive fading, so beyond four tags the
// assignment switches to code sharing instead of slicing thinner.
const MaxSubcarrierGroups = 4

// SubcarrierGroup selects one contiguous slice of a disjoint partition
// of the 52 data subcarriers: group Index of Of.
type SubcarrierGroup struct {
	Index int
	Of    int
}

// bounds returns the half-open [lo, hi) positions of the group within
// dataSubcarriers.
func (g SubcarrierGroup) bounds() (int, int) {
	n := len(dataSubcarriers)
	of := g.Of
	if of < 1 {
		of = 1
	}
	return g.Index * n / of, (g.Index + 1) * n / of
}

// Size returns the number of data subcarriers in the group.
func (g SubcarrierGroup) Size() int {
	lo, hi := g.bounds()
	return hi - lo
}

// TagAssignment describes how one concurrent tag rides the excitation:
// which subcarrier group it modulates, the ±1 orthogonal code spreading
// each of its chips over len(Code) OFDM symbols (nil or length 1 means
// no spreading), and its relative reflection amplitude at the receiver.
type TagAssignment struct {
	Group SubcarrierGroup
	Code  []int8
	Gain  float64
}

// gain returns the assignment's amplitude with the default applied.
func (a TagAssignment) gain() float64 {
	if a.Gain <= 0 {
		return 1
	}
	return a.Gain
}

// codeLen returns the assignment's spreading length (≥ 1).
func (a TagAssignment) codeLen() int {
	if len(a.Code) == 0 {
		return 1
	}
	return len(a.Code)
}

// chip returns the assignment's ±1 code chip for data symbol s.
func (a TagAssignment) chip(s int) float64 {
	if len(a.Code) == 0 {
		return 1
	}
	return float64(a.Code[s%len(a.Code)])
}

// WalshCodes returns n mutually orthogonal ±1 code words of the
// smallest power-of-two length > n: rows 1..n of the Sylvester-Hadamard
// matrix. Row 0 (all ones) is deliberately skipped — it is the static
// reflection path every backscatter superposition already contains, so
// codes must be orthogonal to it as well as to each other.
func WalshCodes(n int) [][]int8 {
	if n <= 0 {
		return nil
	}
	l := 1
	for l <= n {
		l *= 2
	}
	out := make([][]int8, n)
	for r := 0; r < n; r++ {
		row := make([]int8, l)
		for c := 0; c < l; c++ {
			// Hadamard entry (-1)^popcount((r+1) & c).
			if bits.OnesCount(uint((r+1)&c))%2 == 0 {
				row[c] = 1
			} else {
				row[c] = -1
			}
		}
		out[r] = row
	}
	return out
}

// AssignConcurrent returns the deterministic assignment for k concurrent
// tags: up to MaxSubcarrierGroups tags get disjoint subcarrier groups
// with no spreading; beyond that, tags are dealt round-robin onto the
// groups and every tag of a shared partition spreads with a distinct
// Walsh code so the receiver can separate group-mates by correlation.
func AssignConcurrent(k int) []TagAssignment {
	if k <= 0 {
		return nil
	}
	groups := k
	if groups > MaxSubcarrierGroups {
		groups = MaxSubcarrierGroups
	}
	out := make([]TagAssignment, k)
	if k <= MaxSubcarrierGroups {
		for i := range out {
			out[i] = TagAssignment{Group: SubcarrierGroup{Index: i, Of: groups}}
		}
		return out
	}
	// Shared partition: sharers per group is ⌈k/groups⌉; all tags use the
	// same code length so windows stay aligned across groups.
	maxShare := (k + groups - 1) / groups
	codes := WalshCodes(maxShare)
	codeLen := len(codes[0])
	for i := range out {
		g := i % groups
		share := i / groups
		code := make([]int8, codeLen)
		copy(code, codes[share])
		out[i] = TagAssignment{
			Group: SubcarrierGroup{Index: g, Of: groups},
			Code:  code,
		}
	}
	return out
}

// ApplyConcurrentTags superimposes K concurrent backscatter tags onto a
// modulated frame in place. For data symbol s, tag k's chip is
// Code[s mod L] · (1−2·bits[k][s/L]) and every subcarrier of its group
// is scaled by the gain-normalized sum of the chips of all tags covering
// it — the additive reflection superposition, which reduces to a pure
// ±1 phase flip when a group has a single tag at unit gain. Pilots and
// the preamble are left untouched: tags modulate data symbols only, so
// the receiver's HT-LTF channel estimate and pilot references stay
// clean. Tag bit streams shorter than the frame pad with zero bits.
func ApplyConcurrentTags(w radio.Waveform, info *FrameInfo, assigns []TagAssignment, bits [][]byte) error {
	if len(assigns) != len(bits) {
		return fmt.Errorf("ofdm: %d assignments but %d tag bit streams", len(assigns), len(bits))
	}
	if len(assigns) == 0 {
		return nil
	}
	// Per-bin coverage: which tags modulate each data-subcarrier position.
	n := len(dataSubcarriers)
	cover := make([][]int, n)
	var totalGain = make([]float64, n)
	for k, a := range assigns {
		lo, hi := a.Group.bounds()
		if lo < 0 || hi > n || lo >= hi {
			return fmt.Errorf("ofdm: tag %d group %+v out of range", k, a.Group)
		}
		for i := lo; i < hi; i++ {
			cover[i] = append(cover[i], k)
			totalGain[i] += a.gain()
		}
	}
	bins := make([]complex128, FFTSize)
	for s, start := range info.SymbolStart {
		if start+SymbolSamples > len(w.IQ) {
			return ErrShortWaveform
		}
		core := w.IQ[start+GuardSamples : start+SymbolSamples]
		copy(bins, core)
		dsp.FFT(bins)
		for i, ks := range cover {
			if len(ks) == 0 {
				continue
			}
			var comb float64
			for _, k := range ks {
				a := assigns[k]
				bit := 0.0
				if j := s / a.codeLen(); j < len(bits[k]) && bits[k][j]&1 == 1 {
					bit = 1
				}
				comb += a.gain() * a.chip(s) * (1 - 2*bit)
			}
			bins[binIdx(dataSubcarriers[i])] *= complex(comb/totalGain[i], 0)
		}
		dsp.IFFT(bins)
		copy(core, bins)
		// Refresh the cyclic prefix from the modified tail.
		copy(w.IQ[start:start+GuardSamples], core[FFTSize-GuardSamples:])
	}
	return nil
}

// JointDemodulator recovers K concurrent tags' subcarrier bit streams
// from one collided, frame-aligned waveform. It equalizes against the
// HT-LTF exactly like Demodulator (the channel-estimate scratch is
// shared), despreads each tag's code over its window, and hard-demaps
// the despread constellation points of the tag's subcarrier group. A
// single full-band, unspread assignment therefore returns exactly the
// bits Demodulator.Demodulate would — the joint path is a strict
// generalization, not a parallel implementation. Not safe for
// concurrent use.
type JointDemodulator struct {
	cfg     Config
	assigns []TagAssignment
	d       *Demodulator // shared channel-estimate + equalizer scratch

	// acc accumulates per-subcarrier code correlations for one window,
	// indexed [tag][position within group].
	acc [][]complex128
	// totalGain per data-subcarrier position (superposition normalizer).
	totalGain []float64
	// ref holds the clean excitation's data bits (Demodulate order),
	// required for code-shared (L>1) separation: see SetExcitation.
	ref []byte
	// streams holds the per-tag output bit slices, reused across calls.
	streams [][]byte
}

// SetExcitation gives the demodulator the clean excitation frame's data
// bits (scalar Demodulate order: symbol-major, BitsPerSubcarrier bits
// per data subcarrier; bits beyond the slice are taken as zero, matching
// the modulator's padding). Code-shared assignments (code length > 1)
// need it: despreading correlates across OFDM symbols whose excitation
// constellations differ, so the known excitation must be divided out
// first — the same knowledge the productive two-receiver decode already
// assumes. Disjoint-group (unspread) assignments ignore it. The bits
// are copied.
func (j *JointDemodulator) SetExcitation(bits []byte) {
	j.ref = append(j.ref[:0], bits...)
}

// NewJointDemodulator returns a joint demodulator for cfg and the given
// per-tag assignments. All assignments must share one code length so
// despreading windows align; mixed lengths return an error.
func NewJointDemodulator(cfg Config, assigns []TagAssignment) (*JointDemodulator, error) {
	if len(assigns) == 0 {
		return nil, errors.New("ofdm: joint demodulation needs at least one tag assignment")
	}
	l := assigns[0].codeLen()
	n := len(dataSubcarriers)
	totalGain := make([]float64, n)
	for k, a := range assigns {
		if a.codeLen() != l {
			return nil, fmt.Errorf("ofdm: tag %d code length %d != %d (windows must align)", k, a.codeLen(), l)
		}
		lo, hi := a.Group.bounds()
		if lo < 0 || hi > n || lo >= hi {
			return nil, fmt.Errorf("ofdm: tag %d group %+v out of range", k, a.Group)
		}
		for i := lo; i < hi; i++ {
			totalGain[i] += a.gain()
		}
	}
	j := &JointDemodulator{
		cfg:       cfg,
		assigns:   append([]TagAssignment(nil), assigns...),
		d:         NewDemodulator(cfg),
		totalGain: totalGain,
		acc:       make([][]complex128, len(assigns)),
		streams:   make([][]byte, len(assigns)),
	}
	for k, a := range j.assigns {
		j.acc[k] = make([]complex128, a.Group.Size())
	}
	return j, nil
}

// CodeLen returns the shared despreading window length in OFDM symbols.
func (j *JointDemodulator) CodeLen() int { return j.assigns[0].codeLen() }

// Demodulate recovers every tag's subcarrier bit stream from one
// collided waveform. Stream k holds, window-major then subcarrier-major,
// the hard-demapped bits of tag k's group after despreading; with a
// single full-band unspread assignment it equals the scalar
// demodulator's output bit for bit (including the PayloadBits
// truncation). Returned slices alias demodulator scratch and are valid
// until the next call.
func (j *JointDemodulator) Demodulate(w radio.Waveform, info *FrameInfo) ([][]byte, error) {
	obsJointDemodulated.Inc()
	if err := j.d.estimateChannel(w, info); err != nil {
		return nil, err
	}
	L := j.CodeLen()
	bpsc := j.cfg.Modulation.BitsPerSubcarrier()
	numWindows := info.NumSymbols() / L
	for k := range j.streams {
		want := numWindows * j.assigns[k].Group.Size() * bpsc
		if cap(j.streams[k]) < want {
			j.streams[k] = make([]byte, 0, want)
		}
		j.streams[k] = j.streams[k][:0]
	}
	multi := len(j.assigns) > 1
	// Code-shared separation divides the known excitation constellation
	// out of every bin before correlating, then re-applies the window's
	// leading symbol so the output keeps "bits relative to excitation"
	// semantics (JointTagBits compares against that leading symbol).
	useRef := L > 1 && len(j.ref) > 0

	for win := 0; win < numWindows; win++ {
		for k := range j.acc {
			for i := range j.acc[k] {
				j.acc[k][i] = 0
			}
		}
		for l := 0; l < L; l++ {
			s := win*L + l
			start := info.SymbolStart[s]
			bins := fftOfSymbolInto(j.d.bins[:], w.IQ[start:start+SymbolSamples])
			// Common-phase-error correction from the pilots: the pilot
			// polarity sequence is the per-symbol reference the code
			// correlation leans on. Applied only when separating several
			// tags — the single full-band path must demap exactly what
			// Demodulator.Demodulate demaps.
			cpe := complex(1, 0)
			if multi {
				var num complex128
				for _, pk := range pilotSubcarriers {
					num += j.d.equalize(pk, bins[binIdx(pk)]) * pilotValue(s+3, pk)
				}
				if num != 0 {
					cpe = num / complex(cmplx.Abs(num), 0)
				}
			}
			for k, a := range j.assigns {
				chip := complex(a.chip(s), 0)
				lo, hi := a.Group.bounds()
				for i := lo; i < hi; i++ {
					sc := dataSubcarriers[i]
					v := j.d.equalize(sc, bins[binIdx(sc)])
					if multi {
						v /= cpe
					}
					if useRef {
						x := j.refPoint(s, i)
						v *= cmplx.Conj(x) / complex(real(x)*real(x)+imag(x)*imag(x), 0)
					}
					j.acc[k][i-lo] += chip * v
				}
			}
		}
		// Despread: the accumulated correlation of tag k's code against
		// the normalized superposition recovers ±X(f); rescale by the
		// superposition normalizer so the constellation demaps on the
		// same grid the scalar path uses.
		for k, a := range j.assigns {
			lo, _ := a.Group.bounds()
			for i := range j.acc[k] {
				z := j.acc[k][i] * complex(j.totalGain[lo+i]/(float64(L)*a.gain()), 0)
				if useRef {
					z *= j.refPoint(win*L, lo+i)
				}
				j.streams[k] = appendDemap(j.streams[k], j.cfg.Modulation, z)
			}
		}
	}
	// A single full-band unspread stream is the scalar demodulator's
	// output; apply its PayloadBits truncation for exact parity.
	if !multi && L == 1 && j.assigns[0].Group.Size() == len(dataSubcarriers) {
		if len(j.streams[0]) > info.PayloadBits {
			j.streams[0] = j.streams[0][:info.PayloadBits]
		}
	}
	return j.streams, nil
}

// refPoint reconstructs the clean excitation's constellation point at
// data symbol s, data-subcarrier position pos, from the reference bits
// (missing bits map to zero, matching the modulator's padding).
func (j *JointDemodulator) refPoint(s, pos int) complex128 {
	bpsc := j.cfg.Modulation.BitsPerSubcarrier()
	lo := (s*len(dataSubcarriers) + pos) * bpsc
	var chunk []byte
	if lo < len(j.ref) {
		chunk = j.ref[lo:min(lo+bpsc, len(j.ref))]
	}
	return mapConstellation(j.cfg.Modulation, chunk)
}

// JointTagBits reduces one tag's demodulated group stream to overlay tag
// bits, one per despreading window, by majority-voting the stream's sign
// bits against the excitation's reference bits for that group (the
// overlay convention: a flipped window means tag bit 1). ref holds the
// clean frame's data bits in Demodulate order (symbol-major, bpsc bits
// per subcarrier); windows beyond ref vote against zero bits.
func JointTagBits(stream []byte, ref []byte, a TagAssignment, mod Modulation, numSymbols int) []byte {
	bpsc := mod.BitsPerSubcarrier()
	size := a.Group.Size()
	lo, _ := a.Group.bounds()
	perSym := len(dataSubcarriers) * bpsc
	L := a.codeLen()
	numWindows := numSymbols / L
	perWin := size * bpsc
	out := make([]byte, 0, numWindows)
	for win := 0; win < numWindows; win++ {
		flips, total := 0, 0
		for i := 0; i < size; i++ {
			// Compare the window's sign bit per subcarrier against the
			// reference symbol at the window's first symbol. The single
			// full-band stream is truncated to PayloadBits for scalar
			// parity, so a trailing window may vote over fewer bits.
			idx := win*perWin + i*bpsc
			if idx >= len(stream) {
				continue
			}
			got := stream[idx]
			refIdx := (win*L)*perSym + (lo+i)*bpsc
			want := byte(0)
			if refIdx < len(ref) {
				want = ref[refIdx]
			}
			if got != want {
				flips++
			}
			total++
		}
		if 2*flips > total {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return out
}
