package fleet

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"multiscatter/internal/excite"
	"multiscatter/internal/obs"
	"multiscatter/internal/obs/ptrace"
	"multiscatter/internal/radio"
)

// contention aggregates, for one (receiver, packet) pair, which tags
// backscattered the packet. Merged in tag-ID order, so the winner of an
// RSSI tie is the lowest tag ID and the aggregate is deterministic.
type contention struct {
	count      int32
	bestTag    int32
	bestRSSI   float64
	secondRSSI float64
}

// add merges one tag's response. Callers MUST add in ascending tag-ID
// order (denseVerdicts does): the strictly-greater comparisons then make
// the lowest tag ID the deterministic winner of an exact RSSI tie.
// Pinned by TestContentionTieBreak.
func (c *contention) add(tag int32, rssi float64) {
	c.count++
	switch {
	case c.count == 1:
		c.bestTag, c.bestRSSI, c.secondRSSI = tag, rssi, math.Inf(-1)
	case rssi > c.bestRSSI:
		c.secondRSSI = c.bestRSSI
		c.bestTag, c.bestRSSI = tag, rssi
	case rssi > c.secondRSSI:
		c.secondRSSI = rssi
	}
}

// denseVerdicts is the oracle for contend: the cell-by-cell merge the
// engine ran before contention went per receiver, kept verbatim. One
// [receivers][packets] matrix takes every tag's responses serially in
// tag-ID order, and the downlink's lost and joint expressions read it.
// It returns each tag's lost and joint sets and, per response in
// ascending packet order, the cell's count and capture margin.
func denseVerdicts(fr *fleetRun) (lost, joint []packetSet, cells [][]tracedContention) {
	cfg, events := fr.cfg, fr.events
	cont := make([][]contention, len(fr.receivers))
	for ri := range cont {
		cont[ri] = make([]contention, len(events))
	}
	for _, t := range fr.tags {
		for w, word := range t.responses {
			for ; word != 0; word &= word - 1 {
				ei := w*64 + bits.TrailingZeros64(word)
				p := events[ei].Protocol
				cont[t.rx][ei].add(int32(t.id), t.linked[p].RSSIdBm)
			}
		}
	}
	for _, t := range fr.tags {
		l, j := newPacketSet(len(events)), newPacketSet(len(events))
		var cs []tracedContention
		for w, word := range t.responses {
			for ; word != 0; word &= word - 1 {
				ei := w*64 + bits.TrailingZeros64(word)
				p := events[ei].Protocol
				c := &cont[t.rx][ei]
				isJoint := p == radio.Protocol80211n && c.count > 1 &&
					cfg.ConcurrentOFDM > 1 && int(c.count) <= cfg.ConcurrentOFDM
				isLost := !isJoint && c.count > 1 &&
					(c.bestTag != int32(t.id) || c.bestRSSI-c.secondRSSI < cfg.CaptureDB)
				if isJoint {
					j.set(ei)
				}
				if isLost {
					l.set(ei)
				}
				cs = append(cs, tracedContention{c.count, c.bestRSSI - c.secondRSSI})
			}
		}
		lost, joint, cells = append(lost, l), append(joint, j), append(cells, cs)
	}
	return lost, joint, cells
}

// verdictCases are the deployments TestContentionMatchesDenseOracle
// checks beyond the random ones: exact RSSI ties, the capture margin at
// and just above a measured margin, ConcurrentOFDM below, at and far
// above the cluster sizes, receivers no tag reports to, and one receiver
// whose RSSI orders are longer than a word.
func verdictCases(t *testing.T) map[string]Config {
	cases := map[string]Config{}
	for _, n := range []int{2, 3, 5, 7} {
		for _, co := range []int{-1, 0, 2, 6, 1 << 40} {
			cfg := clusterConfig(n, int64(n))
			cfg.ConcurrentOFDM = co
			cases[fmt.Sprintf("tie n=%d co=%d", n, co)] = cfg
		}
	}
	for _, co := range []int{-1, 2, 6, 1 << 40} {
		cfg := wrapGoldenConfig(0)
		cfg.ConcurrentOFDM = co
		cases[fmt.Sprintf("wrap co=%d", co)] = cfg
	}

	near := TagSpec{X: 2, Y: 0, IdentAccuracy: perfectAccuracy}
	far := TagSpec{X: 3, Y: 0, IdentAccuracy: perfectAccuracy}
	margin := Config{
		Sources:        []excite.Source{wifiSource(100)},
		Tags:           []TagSpec{near, far, far},
		Receivers:      []ReceiverSpec{{X: 0, Y: 0}},
		Span:           time.Second,
		Seed:           6,
		ConcurrentOFDM: -1,
		Obs:            obs.NewRegistry(),
	}
	probe, err := Run(margin)
	if err != nil {
		t.Fatal(err)
	}
	p := radio.Protocol80211n.String()
	m := probe.Tags[0].RSSIdBm[p] - probe.Tags[1].RSSIdBm[p]
	if m <= 0 {
		t.Fatalf("near tag must be stronger, margin %v dB", m)
	}
	margin.CaptureDB = m
	cases["capture at margin"] = margin
	margin.CaptureDB = math.Nextafter(m, math.Inf(1))
	cases["capture above margin"] = margin

	sc, err := excite.FindScenario("office")
	if err != nil {
		t.Fatal(err)
	}
	cases["idle receivers"] = Config{
		Sources:   sc.Sources,
		Tags:      PlaceGrid(12, 10, 10),
		Receivers: PlaceReceivers(40, 10, 10),
		Span:      500 * time.Millisecond,
		Seed:      9,
	}

	// 120 tags in a line from 0.5 to 36.2 m of one receiver, each
	// answering about one packet in twenty: a packet's best tag and
	// runner-up fall anywhere in the order, and a runner-up's capture
	// prefix ends partway through it.
	sparse := map[radio.Protocol]float64{}
	for _, p := range radio.Protocols {
		sparse[p] = 0.05
	}
	line := make([]TagSpec, 120)
	for i := range line {
		line[i] = TagSpec{X: 0.5 + 0.3*float64(i), IdentAccuracy: sparse}
	}
	for _, co := range []int{0, 1 << 40} {
		cases[fmt.Sprintf("long order co=%d", co)] = Config{
			Sources:        sc.Sources,
			Tags:           line,
			Receivers:      []ReceiverSpec{{}},
			Span:           time.Second,
			Seed:           12,
			ConcurrentOFDM: co,
		}
	}
	return cases
}

// TestContentionMatchesDenseOracle checks contend bit for bit against
// denseVerdicts on TestFleetInvariantsRandomConfigs' 40 deployments and
// on verdictCases, with pools of 1, 2 and 3 workers so receivers fall
// into different task groups. Every packet is traced, so the count and
// margin of every response are compared too.
func TestContentionMatchesDenseOracle(t *testing.T) {
	cases := verdictCases(t)
	names := make([]string, 0, len(cases)+40)
	for name := range cases {
		names = append(names, name)
	}
	slices.Sort(names)
	rng := rand.New(rand.NewSource(20261017))
	for n := 0; n < 40; n++ {
		name := fmt.Sprintf("random %d", n)
		cases[name] = randomConfig(rng)
		names = append(names, name)
	}

	var lostBits, jointBits, captured, idleReceivers int
	for size := 1; size <= 3; size++ {
		pool := NewPool(size)
		for _, name := range names {
			cfg := cases[name]
			cfg.Pool, cfg.Obs = pool, obs.NewRegistry()
			cfg.Trace = ptrace.New(ptrace.Config{})
			cfg, err := withDefaults(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fr, err := newRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fr.identify(context.Background())
			lost, joint, cells := denseVerdicts(fr)
			fr.contend(context.Background())
			for i, tag := range fr.tags {
				if !slices.Equal(tag.lost, lost[i]) || !slices.Equal(tag.joint, joint[i]) {
					t.Fatalf("%s, pool of %d: tag %d verdicts differ from the dense merge", name, size, i)
				}
				if len(tag.traced) != len(cells[i]) {
					t.Fatalf("%s, pool of %d: tag %d kept %d traced contentions, want %d",
						name, size, i, len(tag.traced), len(cells[i]))
				}
				for k, c := range cells[i] {
					got := tag.traced[k]
					if got.count != c.count || math.Float64bits(got.marginDB) != math.Float64bits(c.marginDB) {
						t.Fatalf("%s, pool of %d: tag %d response %d: contention %+v, want %+v",
							name, size, i, k, got, c)
					}
				}
				k := 0
				for w, resp := range tag.responses {
					lostBits += bits.OnesCount64(lost[i][w])
					jointBits += bits.OnesCount64(joint[i][w])
					for m := resp; m != 0; m &= m - 1 {
						if cells[i][k].count > 1 && (lost[i][w]|joint[i][w])&(m&-m) == 0 {
							captured++
						}
						k++
					}
				}
			}
			for r := range fr.receivers {
				if fr.rxStart[r] == fr.rxStart[r+1] {
					idleReceivers++
				}
			}
		}
		pool.Close()
	}
	if lostBits == 0 || jointBits == 0 || captured == 0 || idleReceivers == 0 {
		t.Fatalf("cases too tame: %d lost, %d joint, %d captured, %d idle receivers",
			lostBits, jointBits, captured, idleReceivers)
	}
}

// TestManyReceiversAllocation: nothing a run allocates grows with
// receivers × packets, traced or not. A 1-tag office run over 1 s with
// 10,000 receivers stays under 16 MB; a [receivers][packets] contention
// matrix alone would be 10,000 × ≈2.2k packets × 24 B ≈ 0.5 GB.
func TestManyReceiversAllocation(t *testing.T) {
	sc, err := excite.FindScenario("office")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(2)
	defer pool.Close()
	for _, tc := range []struct {
		name  string
		pool  *Pool
		trace *ptrace.Recorder
	}{{"untraced", nil, nil}, {"traced on a shared pool", pool, ptrace.New(ptrace.Config{})}} {
		cfg := Config{
			Sources:   sc.Sources,
			Tags:      []TagSpec{{X: 50, Y: 50}},
			Receivers: PlaceReceivers(10000, 100, 100),
			Span:      time.Second,
			Seed:      1,
			Workers:   1,
			Pool:      tc.pool,
			Obs:       obs.NewRegistry(),
			Trace:     tc.trace,
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Events < 2000 {
			t.Fatalf("%s: a %d-packet timeline is too short to show a receivers × packets term", tc.name, res.Events)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<20 {
			t.Fatalf("%s: the run allocated %.1f MB, want under 16 MB", tc.name, float64(got)/(1<<20))
		}
	}
}

// TestBucketAllocation: the throughput timeline costs one array per
// shard, not one per tag. 2000 tags over 2 s of office traffic in 1 ms
// buckets allocate ≈11 MB and must stay under 20 MB; per-tag arrays
// alone would be 2000 × 2001 buckets × 8 B ≈ 32 MB.
func TestBucketAllocation(t *testing.T) {
	sc, err := excite.FindScenario("office")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Sources:   sc.Sources,
		Tags:      PlaceGrid(2000, 20, 20),
		Receivers: PlaceReceivers(4, 20, 20),
		Span:      2 * time.Second,
		BucketMS:  1,
		Seed:      1,
		Workers:   1,
		Obs:       obs.NewRegistry(),
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Buckets) != 2001 {
		t.Fatalf("%d buckets, want 2001", len(res.Buckets))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 20<<20 {
		t.Fatalf("the run allocated %.1f MB, want under 20 MB", float64(got)/(1<<20))
	}
}
