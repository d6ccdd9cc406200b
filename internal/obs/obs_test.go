package obs

import (
	"bytes"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Fatalf("counter = %d, want 42", c.Load())
	}
	if r.Counter("a.count") != c {
		t.Fatal("same name must return the same counter")
	}
	g := r.Gauge("a.level")
	g.Set(2.5)
	if g.Load() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", g.Load())
	}
	if r.Gauge("a.level") != g {
		t.Fatal("same name must return the same gauge")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{10, 100, 1000})
	for _, v := range []float64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	s := h.snapshot()
	// v ≤ bound lands in that bucket: {1,10} ≤10, {11,100} ≤100, 5000 overflow.
	want := []int64{2, 2, 0, 1}
	if !reflect.DeepEqual(s.Counts, want) {
		t.Fatalf("bucket counts = %v, want %v", s.Counts, want)
	}
	if s.Count != 5 || s.Sum != 5122 {
		t.Fatalf("count/sum = %d/%v, want 5/5122", s.Count, s.Sum)
	}
	// Registering the same name again keeps the original layout.
	if got := r.Histogram("lat", []float64{1}); got != h {
		t.Fatal("same name must return the same histogram")
	}
}

func TestStageTimer(t *testing.T) {
	var st StageTimer
	st.Observe(10 * time.Millisecond)
	st.Observe(30 * time.Millisecond)
	s := st.snapshot()
	if s.Count != 2 || s.TotalNS != int64(40*time.Millisecond) {
		t.Fatalf("stage snapshot = %+v", s)
	}
	if s.MaxNS != int64(30*time.Millisecond) || s.MeanNS() != int64(20*time.Millisecond) {
		t.Fatalf("max/mean = %d/%d", s.MaxNS, s.MeanNS())
	}
	if s.MinNS != int64(10*time.Millisecond) {
		t.Fatalf("min = %d, want %d", s.MinNS, int64(10*time.Millisecond))
	}
	t0 := time.Now()
	time.Sleep(time.Millisecond)
	st.ObserveSince(t0)
	if s2 := st.snapshot(); s2.Count != 3 || s2.TotalNS <= s.TotalNS {
		t.Fatal("ObserveSince did not record")
	}
	if st.MinNS() > int64(10*time.Millisecond) {
		t.Fatalf("min grew after a faster observation: %d", st.MinNS())
	}
}

func TestStageTimerMin(t *testing.T) {
	var st StageTimer
	if st.MinNS() != 0 {
		t.Fatalf("zero-value min = %d, want 0", st.MinNS())
	}
	// A genuine 0 ns observation must be distinguishable from "unset".
	st.Observe(0)
	if s := st.snapshot(); s.MinNS != 0 || s.Count != 1 {
		t.Fatalf("after Observe(0): %+v", s)
	}
	st.Observe(5 * time.Microsecond)
	if st.MinNS() != 0 {
		t.Fatalf("min climbed to %d after a slower observation", st.MinNS())
	}

	// Merge takes the smaller valid minimum and ignores empty sides.
	var slow, fast, empty StageTimer
	slow.Observe(9 * time.Millisecond)
	fast.Observe(2 * time.Millisecond)
	a := Snapshot{Stages: map[string]StageSnapshot{"p": slow.snapshot()}}
	b := Snapshot{Stages: map[string]StageSnapshot{"p": fast.snapshot()}}
	e := Snapshot{Stages: map[string]StageSnapshot{"p": empty.snapshot()}}
	merged := a.Merge(b).Merge(e)
	if got := merged.Stages["p"].MinNS; got != int64(2*time.Millisecond) {
		t.Fatalf("merged min = %d, want %d", got, int64(2*time.Millisecond))
	}
	if got := e.Merge(a).Stages["p"].MinNS; got != int64(9*time.Millisecond) {
		t.Fatalf("empty-base merge min = %d, want %d", got, int64(9*time.Millisecond))
	}
}

// TestConcurrentShardMerge is the registry's core contract under the
// fleet's sharded workers: N shards record concurrently into their own
// registries, the per-shard snapshots merge in arbitrary order, and the
// merged totals are exact. Run under -race by scripts/check.sh.
func TestConcurrentShardMerge(t *testing.T) {
	const shards, perShard = 16, 10_000
	regs := make([]*Registry, shards)
	var wg sync.WaitGroup
	for i := range regs {
		regs[i] = NewRegistry()
		wg.Add(1)
		go func(r *Registry) {
			defer wg.Done()
			c := r.Counter("pkts")
			h := r.Histogram("ns", []float64{100, 1000})
			st := r.Stage("phase")
			for j := 0; j < perShard; j++ {
				c.Inc()
				h.Observe(float64(j % 2000))
				st.Observe(time.Duration(j))
			}
			r.Gauge("shard.level").Set(1)
		}(regs[i])
	}
	wg.Wait()

	merged := Snapshot{Counters: map[string]int64{}}
	for _, r := range regs {
		merged = merged.Merge(r.Snapshot())
	}
	if got := merged.Counters["pkts"]; got != shards*perShard {
		t.Fatalf("merged counter = %d, want %d", got, shards*perShard)
	}
	h := merged.Histograms["ns"]
	if h.Count != shards*perShard {
		t.Fatalf("merged histogram count = %d, want %d", h.Count, shards*perShard)
	}
	var bucketSum int64
	for _, c := range h.Counts {
		bucketSum += c
	}
	if bucketSum != h.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, h.Count)
	}
	st := merged.Stages["phase"]
	if st.Count != shards*perShard {
		t.Fatalf("merged stage count = %d, want %d", st.Count, shards*perShard)
	}
	// Per-shard total Σ(0..perShard-1) ns, times shards — exact.
	wantTotal := int64(shards) * int64(perShard) * int64(perShard-1) / 2
	if st.TotalNS != wantTotal {
		t.Fatalf("merged stage total = %d, want %d", st.TotalNS, wantTotal)
	}
	if merged.Gauges["shard.level"] != 1 {
		t.Fatal("gauge did not merge")
	}
}

// TestSharedRegistryConcurrency exercises the other supported mode: many
// goroutines hammering one shared registry (atomic hot path, no locks).
func TestSharedRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5000; j++ {
				r.Counter("shared").Inc()
				r.Histogram("h", nil).Observe(float64(j))
				r.Stage("s").Observe(time.Duration(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != 40_000 {
		t.Fatalf("shared counter = %d, want 40000", got)
	}
	if got := r.Snapshot().Histograms["h"].Count; got != 40_000 {
		t.Fatalf("shared histogram count = %d", got)
	}
}

func TestSnapshotSubScopesARun(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(10)
	r.Stage("s").Observe(time.Millisecond)
	before := r.Snapshot()
	r.Counter("c").Add(5)
	r.Counter("new").Add(2)
	r.Stage("s").Observe(2 * time.Millisecond)
	delta := r.Snapshot().Sub(before)
	if delta.Counters["c"] != 5 || delta.Counters["new"] != 2 {
		t.Fatalf("counter delta = %v", delta.Counters)
	}
	if st := delta.Stages["s"]; st.Count != 1 || st.TotalNS != int64(2*time.Millisecond) {
		t.Fatalf("stage delta = %+v", st)
	}
	// Unchanged names disappear from the delta.
	r2 := NewRegistry()
	r2.Counter("only").Add(1)
	snap := r2.Snapshot()
	if d := snap.Sub(snap); len(d.Counters) != 0 {
		t.Fatalf("self-delta not empty: %v", d.Counters)
	}
}

func TestSnapshotJSONStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("g").Set(3)
	var x, y bytes.Buffer
	if err := r.Snapshot().WriteJSON(&x); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&y); err != nil {
		t.Fatal(err)
	}
	if x.String() != y.String() {
		t.Fatal("two snapshots of an idle registry must encode identically")
	}
	if !strings.Contains(x.String(), `"counters"`) {
		t.Fatalf("missing counters section: %s", x.String())
	}
}

func TestSnapshotMarkdown(t *testing.T) {
	r := NewRegistry()
	r.Counter("fleet.packets").Add(7)
	r.Gauge("fleet.workers").Set(4)
	r.Stage("fleet.run").Observe(3 * time.Millisecond)
	r.Histogram("fleet.shard_ns", nil).Observe(5e6)
	md := r.Snapshot().Markdown()
	for _, want := range []string{"fleet.packets | 7", "fleet.workers | 4", "fleet.run | 1", "histogram `fleet.shard_ns`"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	if co := r.Snapshot().CountersOnly(); len(co.Gauges)+len(co.Stages)+len(co.Histograms) != 0 {
		t.Fatal("CountersOnly leaked non-counter sections")
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", Default())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1e3, 10, 3)
	want := []float64{1e3, 1e4, 1e5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ExpBuckets = %v, want %v", got, want)
	}
	if n := len(TimeBucketsNS()); n != 8 {
		t.Fatalf("TimeBucketsNS len = %d", n)
	}
}
