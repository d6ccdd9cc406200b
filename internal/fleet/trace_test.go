package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"multiscatter/internal/channel"
	"multiscatter/internal/excite"
	"multiscatter/internal/obs"
	"multiscatter/internal/obs/ptrace"
	"multiscatter/internal/overlay"
	"multiscatter/internal/radio"
	"multiscatter/internal/sim"
)

var updateTrace = flag.Bool("update", false, "regenerate the golden flight-recorder trace")

const goldenTracePath = "testdata/golden_trace.jsonl"

// traceGoldenConfig is a small deployment that still exercises every
// lifecycle stage: shadowing, an energy-limited tag, a single-protocol
// tag, and enough co-located tags to cross-collide.
func traceGoldenConfig(workers int) Config {
	tags := PlaceGrid(4, 8, 8)
	tags[1].Energy = &sim.EnergyConfig{Lux: 1.04e5, StartCharged: true, HarvestJitterPct: 0.2}
	tags[2].Supported = []radio.Protocol{radio.ProtocolZigBee}
	return Config{
		Sources: []excite.Source{wifiSource(80), excite.NewZigBeeSource()},
		Tags:    tags,
		Channel: &channel.Model{RefLossDB: 40.05, Exponent: 2.0, ShadowSigmaDB: 6},
		Span:    time.Second,
		Seed:    11,
		Workers: workers,
		Obs:     obs.NewRegistry(),
	}
}

// wrapGoldenConfig exercises the packet-set walks and the contention
// merge where they can go wrong, under a trace whose rings wrap: five
// receivers, one of which is nearest to no tag; clusters of co-located
// tags, whose RSSIs tie exactly; a three-tag 802.11n cluster above
// ConcurrentOFDM 2, which falls back to capture; tags at two distances
// from one receiver, so some collisions are captured; and harvesting tags
// that sleep through part of the timeline, a third of them with harvest
// jitter.
func wrapGoldenConfig(workers int) Config {
	at := func(x, y float64) TagSpec { return TagSpec{X: x, Y: y} }
	harvest := func(t TagSpec, lux float64, charged bool, jitter float64) TagSpec {
		t.Energy = &sim.EnergyConfig{Lux: lux, StartCharged: charged, HarvestJitterPct: jitter}
		return t
	}
	tags := []TagSpec{
		at(2, 1.5), at(2, 1.5), at(2, 1.5), // tied cluster at receiver 0
		harvest(at(10, 2), 1.04e5, true, 0), harvest(at(10, 2), 1.04e5, true, 0.2), // joint pair at receiver 1
		at(1.5, 10), at(1, 6.5), // two distances from receiver 2
		at(6.5, 6), harvest(at(7.5, 7.5), 3e4, true, 0), at(5, 5),
		harvest(at(6.5, 6), 1.04e5, false, 0), harvest(at(2, 1.5), 1.04e5, true, 0.2),
		harvest(at(1, 6.5), 3e4, true, 0),
		{X: 9, Y: 3, Supported: []radio.Protocol{radio.ProtocolZigBee}},
		{X: 4, Y: 4, Mode: overlay.Mode2},
	}
	return Config{
		Sources: []excite.Source{wifiSource(300), excite.NewZigBeeSource(), excite.NewBLEAdvSource()},
		Tags:    tags,
		Receivers: []ReceiverSpec{
			{X: 1, Y: 1}, {X: 11, Y: 1}, {X: 1, Y: 11}, {X: 11, Y: 11}, {X: 6, Y: 6},
		},
		Channel:        &channel.Model{RefLossDB: 40.05, Exponent: 2.8, ShadowSigmaDB: 4},
		Span:           time.Second,
		Seed:           21,
		Workers:        workers,
		ConcurrentOFDM: 2,
		Obs:            obs.NewRegistry(),
	}
}

// TestTraceGoldenDeterminism pins the flight recorder's two contracts
// at once: (1) identically-seeded runs drain byte-identical JSONL at
// -workers 1 and an oversubscribed pool, and (2) the stream matches the
// committed golden file, so the event schema cannot drift silently.
// Regenerate deliberately with
// `go test ./internal/fleet -run TraceGolden -update`.
func TestTraceGoldenDeterminism(t *testing.T) {
	encode := func(workers int) []byte {
		cfg := traceGoldenConfig(workers)
		cfg.Trace = ptrace.New(ptrace.Config{Sample: 5})
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ptrace.WriteJSONL(&buf, cfg.Trace.Drain()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	prev := runtime.GOMAXPROCS(1)
	serial := encode(1)
	runtime.GOMAXPROCS(prev)
	parallel := encode(runtime.NumCPU() * 2)

	if !bytes.Equal(serial, parallel) {
		a, _ := ptrace.ReadJSONL(bytes.NewReader(serial))
		b, _ := ptrace.ReadJSONL(bytes.NewReader(parallel))
		t.Fatalf("trace differs between workers=1 and a parallel pool:\n%s",
			ptrace.Diff(a, b).Format("workers=1", a, "parallel", b))
	}

	if *updateTrace {
		if err := os.WriteFile(filepath.FromSlash(goldenTracePath), serial, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenTracePath, len(serial))
	}
	want, err := os.ReadFile(filepath.FromSlash(goldenTracePath))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, want) {
		a, _ := ptrace.ReadJSONL(bytes.NewReader(want))
		b, _ := ptrace.ReadJSONL(bytes.NewReader(serial))
		t.Fatalf("flight-recorder trace drifted from the committed golden — run with -update only if the schema/model change is intentional:\n%s",
			ptrace.Diff(a, b).Format("golden", a, "run", b))
	}
}

const goldenWrapTracePath = "testdata/golden_trace_wrap.jsonl"

// wrapTrace samples every third packet into 64-event rings, so every
// shard of wrapGoldenConfig overwrites its oldest events.
var wrapTrace = ptrace.Config{Sample: 3, Capacity: 64}

// TestTraceGoldenWrap pins the drained stream of wrapGoldenConfig under
// wrapping rings. A ring keeps the newest events in emission order, so
// the stream pins the order in which each shard emits its traced events,
// not only their content. Checked like TestTraceGoldenDeterminism, at
// workers 1 (GOMAXPROCS 1), workers 3 and on a shared pool of 2; every
// traced run's Result must also equal golden_result_wrap.json.
// Regenerate deliberately with `go test ./internal/fleet -run TraceGoldenWrap -update`.
func TestTraceGoldenWrap(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	encode := func(workers int, pool *Pool) (trace, result []byte, events []ptrace.Event) {
		cfg := wrapGoldenConfig(workers)
		cfg.Pool = pool
		cfg.Trace = ptrace.New(wrapTrace)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if result, err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
		events = cfg.Trace.Drain()
		var buf bytes.Buffer
		if err := ptrace.WriteJSONL(&buf, events); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), append(result, '\n'), events
	}

	prev := runtime.GOMAXPROCS(1)
	serial, serialRes, events := encode(1, nil)
	runtime.GOMAXPROCS(prev)

	perShard := map[int32]int{}
	for _, ev := range events {
		perShard[ev.Shard]++
	}
	if len(perShard) != len(wrapGoldenConfig(1).Tags) {
		t.Fatalf("%d shards traced, want one per tag", len(perShard))
	}
	for shard, n := range perShard {
		if n != wrapTrace.Capacity {
			t.Fatalf("shard %d kept %d events, want a full ring of %d", shard, n, wrapTrace.Capacity)
		}
	}
	full := wrapGoldenConfig(1)
	full.Trace = ptrace.New(ptrace.Config{Sample: wrapTrace.Sample})
	if _, err := Run(full); err != nil {
		t.Fatal(err)
	}
	if n := len(full.Trace.Drain()); n <= len(events) {
		t.Fatalf("unbounded rings hold %d events, the wrapped ones %d: nothing wrapped", n, len(events))
	}

	if *updateTrace {
		if err := os.WriteFile(filepath.FromSlash(goldenWrapTracePath), serial, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenWrapTracePath, len(serial))
	}
	want, err := os.ReadFile(filepath.FromSlash(goldenWrapTracePath))
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := os.ReadFile(filepath.Join("testdata", "golden_result_wrap.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []struct {
		name    string
		workers int
		pool    *Pool
	}{{"workers=1", 1, nil}, {"workers=3", 3, nil}, {"shared pool", 0, pool}} {
		got, gotRes := serial, serialRes
		if sched.workers != 1 {
			got, gotRes, _ = encode(sched.workers, sched.pool)
		}
		if !bytes.Equal(got, want) {
			a, _ := ptrace.ReadJSONL(bytes.NewReader(want))
			b, _ := ptrace.ReadJSONL(bytes.NewReader(got))
			t.Fatalf("%s: wrapped trace drifted from the committed golden:\n%s",
				sched.name, ptrace.Diff(a, b).Format("golden", a, sched.name, b))
		}
		if !bytes.Equal(gotRes, wantRes) {
			t.Fatalf("%s: traced result differs from golden_result_wrap.json", sched.name)
		}
	}
}

// explainDivergence re-runs cfg at workers=1 and workersB with the
// flight recorder attached and logs the first divergent packet with its
// lifecycle from both runs. The determinism tests call it on failure so
// a regression names the packet, tag, stage, and both outcomes instead
// of just "results differ".
func explainDivergence(t *testing.T, cfg Config, workersB int) {
	t.Helper()
	run := func(workers int) []ptrace.Event {
		c := cfg
		c.Workers = workers
		c.Obs = obs.NewRegistry()
		c.Trace = ptrace.New(ptrace.Config{})
		if _, err := Run(c); err != nil {
			t.Logf("divergence-explainer rerun failed: %v", err)
			return nil
		}
		return c.Trace.Drain()
	}
	a, b := run(1), run(workersB)
	if d := ptrace.Diff(a, b); d != nil {
		t.Log(d.Format("workers=1", a, fmt.Sprintf("workers=%d", workersB), b))
	}
}

// TestTraceCoversLifecycle checks that a traced run emits every pipeline
// stage and that per-lifecycle events agree with the aggregate counts.
func TestTraceCoversLifecycle(t *testing.T) {
	cfg := traceGoldenConfig(0)
	cfg.Trace = ptrace.New(ptrace.Config{})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	evs := cfg.Trace.Drain()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	var stages [8]int
	outcomes := map[string]int{}
	for _, ev := range evs {
		stages[ev.Stage]++
		if ev.Stage == ptrace.StageOutcome {
			outcomes[ev.Detail]++
		}
	}
	for _, st := range []ptrace.Stage{ptrace.StageExcite, ptrace.StageEnergy, ptrace.StageIdentify,
		ptrace.StagePlan, ptrace.StageChannel, ptrace.StageDemod, ptrace.StageOutcome} {
		if stages[st] == 0 {
			t.Errorf("stage %s never recorded", st)
		}
	}
	// Every excite event starts a lifecycle; ring capacity is large
	// enough here that none rotate out, so excites == events × tags.
	if want := res.Events * res.NumTags; stages[ptrace.StageExcite] != want {
		t.Errorf("excite events = %d, want %d", stages[ptrace.StageExcite], want)
	}
	// Outcome events must agree with the run's aggregate histogram.
	for o, n := range res.Outcomes {
		if outcomes[o.String()] != n {
			t.Errorf("outcome %s: %d events, aggregate says %d", o, outcomes[o.String()], n)
		}
	}
}

// BenchmarkFleetTrace quantifies the flight recorder's overhead on a
// realistic fleet run: "off" is the nil fast path (one pointer check
// per packet, must be within noise of the pre-recorder baseline),
// "sample100" is the CLI's -trace-sample 100 setting (<10% target),
// "full" traces everything.
func BenchmarkFleetTrace(b *testing.B) {
	sc, err := excite.FindScenario("office")
	if err != nil {
		b.Fatal(err)
	}
	base := func() Config {
		return Config{
			Sources:   sc.Sources,
			Tags:      PlaceGrid(100, 30, 50),
			Receivers: PlaceReceivers(4, 30, 50),
			Span:      2 * time.Second,
			Seed:      42,
			Obs:       obs.NewRegistry(),
		}
	}
	for _, bc := range []struct {
		name string
		rec  func() *ptrace.Recorder
	}{
		{"off", func() *ptrace.Recorder { return nil }},
		{"sample100", func() *ptrace.Recorder { return ptrace.New(ptrace.Config{Sample: 100}) }},
		{"full", func() *ptrace.Recorder { return ptrace.New(ptrace.Config{}) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := base()
				cfg.Trace = bc.rec()
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
