package ofdm

import (
	"bytes"
	"math/rand"
	"testing"

	"multiscatter/internal/radio"
)

// TestPilotPolarityMatchesScrambler regenerates the 127-element pilot
// polarity sequence from its definition — the 802.11 scrambler LFSR
// x⁷+x⁴+1 seeded all-ones, p_n = 1−2·s_n — and pins the table against
// it. The table used to hold only the first 16 entries; this test keeps
// the full cycle honest.
func TestPilotPolarityMatchesScrambler(t *testing.T) {
	if len(pilotPolarity) != 127 {
		t.Fatalf("pilotPolarity has %d entries, want 127", len(pilotPolarity))
	}
	state := uint(0x7F) // x1..x7 all ones
	for n := 0; n < 127; n++ {
		out := ((state >> 3) ^ (state >> 6)) & 1 // x4 ⊕ x7
		state = ((state << 1) | out) & 0x7F
		want := 1.0 - 2.0*float64(out)
		if pilotPolarity[n] != want {
			t.Fatalf("pilotPolarity[%d] = %v, want %v", n, pilotPolarity[n], want)
		}
	}
}

func TestSubcarrierGroupPartition(t *testing.T) {
	for of := 1; of <= MaxSubcarrierGroups; of++ {
		seen := map[int]bool{}
		total := 0
		for i := 0; i < of; i++ {
			g := SubcarrierGroup{Index: i, Of: of}
			lo, hi := g.bounds()
			scs := dataSubcarriers[lo:hi]
			if len(scs) != g.Size() {
				t.Fatalf("of=%d group %d: Size %d != len %d", of, i, g.Size(), len(scs))
			}
			for _, k := range scs {
				if seen[k] {
					t.Fatalf("of=%d: subcarrier %d assigned twice", of, k)
				}
				seen[k] = true
			}
			total += len(scs)
		}
		if total != DataSubcarriers() {
			t.Fatalf("of=%d covers %d subcarriers, want %d", of, total, DataSubcarriers())
		}
	}
}

func TestWalshCodesOrthogonal(t *testing.T) {
	codes := WalshCodes(5)
	if len(codes) != 5 {
		t.Fatalf("got %d codes", len(codes))
	}
	for i, a := range codes {
		// Orthogonal to the all-ones static path.
		sum := 0
		for _, c := range a {
			sum += int(c)
		}
		if sum != 0 {
			t.Fatalf("code %d not balanced (dot with all-ones = %d)", i, sum)
		}
		for j, b := range codes {
			if i == j {
				continue
			}
			dot := 0
			for k := range a {
				dot += int(a[k]) * int(b[k])
			}
			if dot != 0 {
				t.Fatalf("codes %d,%d not orthogonal (dot %d)", i, j, dot)
			}
		}
	}
}

func TestAssignConcurrent(t *testing.T) {
	for k := 1; k <= MaxSubcarrierGroups; k++ {
		as := AssignConcurrent(k)
		if len(as) != k {
			t.Fatalf("k=%d: got %d assignments", k, len(as))
		}
		for i, a := range as {
			if a.Group.Of != k || a.Group.Index != i {
				t.Fatalf("k=%d tag %d: group %+v", k, i, a.Group)
			}
			if a.codeLen() != 1 {
				t.Fatalf("k=%d tag %d: unexpected spreading (L=%d)", k, i, a.codeLen())
			}
		}
	}
	// Beyond the group cap, tags share groups with distinct aligned codes.
	as := AssignConcurrent(6)
	if len(as) != 6 {
		t.Fatalf("k=6: got %d assignments", len(as))
	}
	l := as[0].codeLen()
	byGroup := map[int][][]int8{}
	for _, a := range as {
		if a.Group.Of != MaxSubcarrierGroups {
			t.Fatalf("k=6: group partition %d, want %d", a.Group.Of, MaxSubcarrierGroups)
		}
		if a.codeLen() != l {
			t.Fatalf("k=6: mixed code lengths %d vs %d", a.codeLen(), l)
		}
		byGroup[a.Group.Index] = append(byGroup[a.Group.Index], a.Code)
	}
	for g, codes := range byGroup {
		for i := 0; i < len(codes); i++ {
			for j := i + 1; j < len(codes); j++ {
				dot := 0
				for k := range codes[i] {
					dot += int(codes[i][k]) * int(codes[j][k])
				}
				if dot != 0 {
					t.Fatalf("group %d: sharers %d,%d codes not orthogonal", g, i, j)
				}
			}
		}
	}
}

// TestJointK1BitIdentity pins the tentpole's contract: a single
// full-band, unspread assignment must demap exactly the bits the scalar
// demodulator produces — same channel estimate, same equalizer, same
// slicer — including on a noisy, channel-distorted waveform where any
// numeric divergence would surface as differing hard decisions.
func TestJointK1BitIdentity(t *testing.T) {
	for _, mod := range []Modulation{BPSK, QPSK, QAM16} {
		cfg := Config{Modulation: mod}
		m := NewModulator(cfg)
		rng := rand.New(rand.NewSource(21))
		payload := make([]byte, 60)
		for i := range payload {
			payload[i] = byte(rng.Intn(256))
		}
		w, info := m.Modulate(radio.Packet{Payload: payload})
		// A backscatter tag riding the frame, then a flat complex channel
		// gain plus noise strong enough to cause some bit errors: identity
		// must hold bit for bit even when the bits are wrong.
		tagBits := make([]byte, info.NumSymbols())
		for i := range tagBits {
			tagBits[i] = byte(rng.Intn(2))
		}
		if err := ApplyConcurrentTags(w, info, AssignConcurrent(1), [][]byte{tagBits}); err != nil {
			t.Fatal(err)
		}
		gain := complex(0.4, 0.7)
		for i := range w.IQ {
			w.IQ[i] = w.IQ[i]*gain + complex(rng.NormFloat64()*0.2, rng.NormFloat64()*0.2)
		}
		want, err := NewDemodulator(cfg).Demodulate(w, info)
		if err != nil {
			t.Fatal(err)
		}
		jd, err := NewJointDemodulator(cfg, AssignConcurrent(1))
		if err != nil {
			t.Fatal(err)
		}
		streams, err := jd.Demodulate(w, info)
		if err != nil {
			t.Fatal(err)
		}
		if len(streams) != 1 {
			t.Fatalf("%v: got %d streams", mod, len(streams))
		}
		if !bytes.Equal(streams[0], want) {
			t.Fatalf("%v: joint K=1 diverges from scalar demodulator (%d vs %d bits)",
				mod, len(streams[0]), len(want))
		}
	}
}

func TestNewJointDemodulatorRejects(t *testing.T) {
	if _, err := NewJointDemodulator(Config{Modulation: BPSK}, nil); err == nil {
		t.Fatal("empty assignment must be rejected")
	}
	if _, err := NewJointDemodulator(Config{Modulation: BPSK}, []TagAssignment{
		{Group: SubcarrierGroup{Of: 1}, Code: []int8{1, 1}},
		{Group: SubcarrierGroup{Of: 1}, Code: []int8{1, -1, 1, -1}},
	}); err == nil {
		t.Fatal("mixed code lengths must be rejected")
	}
}

// jointRoundTrip modulates one excitation frame, superimposes k
// concurrent tags with independent random bit streams at the given
// noise sigma, joint-demodulates, and returns per-tag recovered bits
// alongside the ground truth.
func jointRoundTrip(t *testing.T, mod Modulation, k int, sigma float64, seed int64) (got, want [][]byte) {
	t.Helper()
	cfg := Config{Modulation: mod}
	m := NewModulator(cfg)
	rng := rand.New(rand.NewSource(seed))
	payload := make([]byte, 120)
	for i := range payload {
		payload[i] = byte(rng.Intn(256))
	}
	w, info := m.Modulate(radio.Packet{Payload: payload})
	clean := append([]complex128(nil), w.IQ...)

	assigns := AssignConcurrent(k)
	L := assigns[0].codeLen()
	numWindows := info.NumSymbols() / L
	want = make([][]byte, k)
	for i := range want {
		want[i] = make([]byte, numWindows)
		for j := range want[i] {
			want[i][j] = byte(rng.Intn(2))
		}
	}
	if err := ApplyConcurrentTags(w, info, assigns, want); err != nil {
		t.Fatal(err)
	}
	gain := complex(0.6, -0.5)
	for i := range w.IQ {
		w.IQ[i] = w.IQ[i]*gain + complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	// Reference bits: what the clean excitation carries on each data
	// subcarrier (the receiver knows the excitation in the productive
	// two-receiver setup, mirroring the overlay decode convention).
	refDemod := NewDemodulator(cfg)
	cleanInfo := *info
	ref, err := refDemod.Demodulate(radio.Waveform{IQ: clean, Rate: w.Rate}, &cleanInfo)
	if err != nil {
		t.Fatal(err)
	}
	jd, err := NewJointDemodulator(cfg, assigns)
	if err != nil {
		t.Fatal(err)
	}
	jd.SetExcitation(ref)
	streams, err := jd.Demodulate(w, info)
	if err != nil {
		t.Fatal(err)
	}
	got = make([][]byte, k)
	for i, a := range assigns {
		got[i] = JointTagBits(streams[i], ref, a, mod, info.NumSymbols())
	}
	return got, want
}

// TestJointConcurrentRecovery sweeps K=2..4 disjoint-group tags and a
// K=6 code-shared fleet across SNR levels: clean and high-SNR runs must
// recover every tag bit exactly; a moderately noisy run must stay under
// a loose BER bound (the 13-subcarrier majority vote is robust).
func TestJointConcurrentRecovery(t *testing.T) {
	cases := []struct {
		name   string
		mod    Modulation
		k      int
		sigma  float64
		maxBER float64
	}{
		{"k2-bpsk-clean", BPSK, 2, 0, 0},
		{"k3-bpsk-clean", BPSK, 3, 0, 0},
		{"k4-bpsk-clean", BPSK, 4, 0, 0},
		{"k6-shared-clean", BPSK, 6, 0, 0},
		{"k2-bpsk-snr-high", BPSK, 2, 0.05, 0},
		{"k4-bpsk-snr-high", BPSK, 4, 0.05, 0},
		{"k6-shared-snr-high", BPSK, 6, 0.05, 0},
		{"k4-qpsk-snr-high", QPSK, 4, 0.05, 0},
		{"k4-bpsk-snr-mid", BPSK, 4, 0.25, 0.1},
		{"k6-shared-snr-mid", BPSK, 6, 0.25, 0.1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, want := jointRoundTrip(t, tc.mod, tc.k, tc.sigma, 31+int64(tc.k))
			for tag := range want {
				errs, total := 0, 0
				for i := range want[tag] {
					if got[tag][i] != want[tag][i] {
						errs++
					}
					total++
				}
				ber := float64(errs) / float64(total)
				if ber > tc.maxBER {
					t.Errorf("tag %d: BER %.3f > %.3f (%d/%d windows wrong)",
						tag, ber, tc.maxBER, errs, total)
				}
			}
		})
	}
}

// TestApplyConcurrentTagsExclusiveIsPureFlip checks the superposition
// reduces to an exact ±1 sign flip for a single-tag group: symbols whose
// tag bit is 0 are untouched sample for sample.
func TestApplyConcurrentTagsExclusiveIsPureFlip(t *testing.T) {
	cfg := Config{Modulation: BPSK}
	m := NewModulator(cfg)
	w, info := m.Modulate(radio.Packet{Payload: make([]byte, 40)})
	clean := append([]complex128(nil), w.IQ...)
	bits := make([]byte, info.NumSymbols())
	for i := range bits {
		bits[i] = byte(i % 2)
	}
	if err := ApplyConcurrentTags(w, info, AssignConcurrent(1), [][]byte{bits}); err != nil {
		t.Fatal(err)
	}
	for s, start := range info.SymbolStart {
		if bits[s] != 0 {
			continue
		}
		for i := start; i < start+SymbolSamples; i++ {
			if d := w.IQ[i] - clean[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
				t.Fatalf("symbol %d (bit 0) modified at sample %d", s, i)
			}
		}
	}
}

func TestApplyConcurrentTagsValidation(t *testing.T) {
	cfg := Config{Modulation: BPSK}
	m := NewModulator(cfg)
	w, info := m.Modulate(radio.Packet{Payload: make([]byte, 8)})
	if err := ApplyConcurrentTags(w, info, AssignConcurrent(2), [][]byte{{1}}); err == nil {
		t.Fatal("mismatched assignment/bits lengths must error")
	}
	if err := ApplyConcurrentTags(w, info, nil, nil); err != nil {
		t.Fatalf("empty assignment should be a no-op, got %v", err)
	}
}
