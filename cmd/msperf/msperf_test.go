package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multiscatter/internal/fleet"
	"multiscatter/internal/obs"
	"multiscatter/internal/overlay"
	"multiscatter/internal/radio"
	"multiscatter/internal/serve"
	"multiscatter/internal/sim"
)

// toySeconds sizes the smoke runs: about 8 packets, 2 fleet runs and 40
// serve-steady jobs.
var toySeconds = map[string]float64{
	"pipeline": 0.2, "fleet-personal": 0.1, "fleet-harvest": 0.1,
	"serve-steady": 0.1, "serve-repeat": 0.05,
}

func loadTestBench(t *testing.T) benchSpec {
	t.Helper()
	spec, err := loadBench()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks the printed result against the contract: the last line is the
// JSON object with exactly the metrics BENCHMARK.json declares, every
// output is correct, every end-to-end metric is above 0, every declared
// per-layer metric is reported by some workload, and on traced runs the
// layer spans cover at least 90% of every operation's wall time.
func TestSmoke(t *testing.T) {
	spec := loadTestBench(t)
	reported := map[string]bool{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				p := params{seed: 1, seconds: toySeconds[w.name], trace: traced, bench: spec}
				r, err := w.run(p)
				if err != nil {
					t.Fatal(err)
				}
				for name := range r.metrics {
					reported[name] = true
				}
				var out bytes.Buffer
				if _, err := emit(&out, w, p, r); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool                   `json:"correct"`
					Attempted int                    `json:"attempted"`
					Failed    int                    `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				defs := spec.EndToEnd
				if traced {
					defs = spec.PerLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					got, ok := res.Metrics[d.Name]
					if !ok || got.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.Name, got, d.Unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, got.Value)
					}
				}
				if traced {
					if c := res.Metrics["trace.min_op_coverage_frac"].Value; c < 0.9 {
						t.Errorf("layer self times cover %.3f of an operation's wall time, want >= 0.9", c)
					}
				}
			})
		}
	}
	for _, d := range spec.PerLayer {
		if !reported[d.Name] {
			t.Errorf("no workload reports per-layer metric %s", d.Name)
		}
	}
}

// TestInputsFollowSeed: the same seed generates identical inputs, and a
// different seed different ones, for every workload.
func TestInputsFollowSeed(t *testing.T) {
	digest := func(v any) [32]byte { return sha256.Sum256([]byte(fmt.Sprintf("%#v", v))) }
	for _, w := range workloads {
		a, b, c := digest(w.inputs(1)), digest(w.inputs(1)), digest(w.inputs(2))
		if a != b {
			t.Errorf("%s: seed 1 generated different inputs twice", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generated identical inputs", w.name)
		}
	}
}

// TestCheckersRejectCorruption shows each correctness gate accepting a
// true output and rejecting a corrupted copy.
func TestCheckersRejectCorruption(t *testing.T) {
	t.Run("pipeline", func(t *testing.T) {
		plan, err := overlay.NewPlan(radio.ProtocolBLE, overlay.Mode1, []byte{1, 0, 1, 1})
		if err != nil {
			t.Fatal(err)
		}
		tag := []byte{0, 1, 1, 0}
		good := overlay.Result{Productive: []byte{1, 0, 1, 1}, Tag: []byte{0, 1, 1, 0}}
		if err := checkPacket(radio.ProtocolBLE, radio.ProtocolBLE, plan, tag, good); err != nil {
			t.Fatalf("true output rejected: %v", err)
		}
		if checkPacket(radio.ProtocolBLE, radio.ProtocolZigBee, plan, tag, good) == nil {
			t.Error("misidentified protocol accepted")
		}
		flipped := overlay.Result{Productive: good.Productive, Tag: []byte{0, 1, 0, 0}}
		if checkPacket(radio.ProtocolBLE, radio.ProtocolBLE, plan, tag, flipped) == nil {
			t.Error("flipped tag bit accepted")
		}
	})

	t.Run("fleet", func(t *testing.T) {
		jc := serve.JobConfig{Tags: 12, FloorW: 12, FloorH: 18, Receivers: 2, SpanMS: 500, Seed: 3}
		cfg, err := jc.FleetConfig()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers, cfg.Obs = 1, obs.NewRegistry()
		ref, err := fleetDigest(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 4
		res, err := fleet.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkFleet(res, ref); err != nil {
			t.Fatalf("true output rejected: %v", err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 1
		if checkDigest(raw, ref) == nil {
			t.Error("flipped byte accepted")
		}
		res.Outcomes[sim.Delivered]++
		if checkConservation(res) == nil {
			t.Error("outcome count off by one accepted")
		}
	})

	t.Run("serve", func(t *testing.T) {
		jobs := benchJobs(5, 1)
		refs, err := serveRefs(jobs)
		if err != nil {
			t.Fatal(err)
		}
		rig := newServeRig()
		defer rig.close()
		body, err := json.Marshal(jobs[0])
		if err != nil {
			t.Fatal(err)
		}
		line, err := rig.post(body)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkResultLine(line, refs[0]); err != nil {
			t.Fatalf("true output rejected: %v", err)
		}
		i := bytes.Index(line, []byte(`"tag_bits":`)) + len(`"tag_bits":`)
		line[i] ^= 1
		if _, err := checkResultLine(line, refs[0]); err == nil {
			t.Error("flipped byte accepted")
		}
	})
}

// TestSelfTimes pins the attribution rule: a nested span's time goes to
// the child; overlapping siblings split time to the shorter one.
func TestSelfTimes(t *testing.T) {
	tree := []node{
		{"root", -1, 0, 100},
		{"a", 0, 10, 60},
		{"a.child", 1, 20, 30},
		{"long", 0, 50, 95}, // overlaps a on 50..60 and is shorter, so takes it
		{"short", 3, 70, 80},
	}
	got := selfTimes(tree)
	want := map[string]int64{"root": 10 + 5, "a": 10 + 20, "a.child": 10, "long": 10 + 10 + 15, "short": 10}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestCompareVerdicts writes two records and checks the verdicts and the
// regression exit signal.
func TestCompareVerdicts(t *testing.T) {
	spec := loadTestBench(t)
	mk := func(p50 []float64, rate []float64) record {
		var r record
		for i := range p50 {
			r.Runs = append(r.Runs, runRecord{Workload: "w", Correct: true, Metrics: map[string]metricValue{
				"p50_ms": {p50[i], "ms"}, "ops_per_s": {rate[i], "1/s"},
				"setup_s": {0.001, "s"}, "p90_ms": {10, "ms"}, "peak_rss_mb": {50, "MB"},
			}})
		}
		return r
	}
	dir := t.TempDir()
	write := func(name string, r record) string {
		path := filepath.Join(dir, name)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk([]float64{10, 10.1, 9.9, 10}, []float64{100, 101, 99, 100}))
	same := write("same.json", mk([]float64{10.2, 10, 9.9, 10.1}, []float64{99, 100, 101, 100}))
	slower := write("slower.json", mk([]float64{13, 13.1, 12.9, 13}, []float64{100, 101, 99, 100}))

	var out bytes.Buffer
	regressed, err := compare(&out, spec, base, same)
	if err != nil || regressed {
		t.Fatalf("same code: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	regressed, err = compare(&out, spec, base, slower)
	if err != nil || !regressed || !strings.Contains(out.String(), "p50_ms") {
		t.Fatalf("slower p50: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if got := verdict(0.3, 0.5, 0.1, false); got != "unresolved" {
		t.Errorf("wide spread: %s, want unresolved", got)
	}
	if got := verdict(-0.3, 0.5, 0.1, true); got != "improved" {
		t.Errorf("wide spread, every run better: %s, want improved", got)
	}
}
