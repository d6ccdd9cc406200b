package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"multiscatter/internal/fleet"
	"multiscatter/internal/obs"
	"multiscatter/internal/serve"
	"multiscatter/internal/sim"
)

// The two fleet deployments, written as service job configs so they go
// through the same config builder msfleet and msserve use.
var (
	// personalJob is the personal-IoT layout: about four tags per
	// receiver, so tags are delivered and joint OFDM decodes happen.
	personalJob = serve.JobConfig{Scenario: "office", Tags: 1000, FloorW: 60, FloorH: 100, Receivers: 256, SpanMS: 2000}
	// harvestJob puts the same floor on harvested energy with shadowed,
	// phase-aware links: most tags sleep, identify does the work.
	harvestJob = serve.JobConfig{Scenario: "office", Tags: 500, FloorW: 60, FloorH: 100, Receivers: 4, SpanMS: 2000,
		Lux: 500, ShadowSigmaDB: 4, PhaseMaxDriftHz: 200}
)

// fleetConfigs is how many seeds of a deployment one run cycles through.
const fleetConfigs = 4

func fleetInputs(seed int64, base serve.JobConfig) []serve.JobConfig {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]serve.JobConfig, fleetConfigs)
	for i := range jobs {
		jobs[i] = base
		jobs[i].Seed = rng.Int63n(1<<40) + 1
	}
	return jobs
}

// fleetPhases are the engine's stage timers, in execution order.
var fleetPhases = []string{"timeline", "prefill", "identify", "contention", "downlink", "reduce"}

func runFleet(p params, name string, base serve.JobConfig) (*report, error) {
	jobs := fleetInputs(p.seed, base)
	build := func() ([]fleet.Config, error) {
		cfgs := make([]fleet.Config, len(jobs))
		for i, jc := range jobs {
			c, err := jc.FleetConfig()
			if err != nil {
				return nil, err
			}
			c.Workers = runtime.GOMAXPROCS(0)
			cfgs[i] = c
		}
		return cfgs, nil
	}
	setup := &setupClock{build: func() (func(), error) { _, err := build(); return nil, err }}
	cfgs, err := build()
	if err != nil {
		return nil, err
	}
	refs := make([][32]byte, len(cfgs))
	for i, c := range cfgs {
		c.Workers = 1
		c.Obs = obs.NewRegistry()
		if refs[i], err = fleetDigest(c); err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
	}

	var tr *tracer
	var fl fleetLayers
	if p.trace {
		tr = &tracer{}
	}
	reg := obs.NewRegistry()
	run := func(i int) (time.Duration, bool) {
		k := i % len(cfgs)
		cfg := cfgs[k]
		cfg.Obs = reg
		traced := tr != nil && tracedOp(i)
		var a0 uint64
		if traced {
			cfg.Obs = obs.NewRegistry()
			a0 = allocBytes()
		}
		t0 := time.Now()
		res, err := fleet.RunContext(context.Background(), cfg)
		t1 := time.Now()
		if traced {
			fl.allocs += allocBytes() - a0
		}
		if err == nil {
			err = checkFleet(res, refs[k])
		}
		if err != nil {
			fmt.Printf("fleet run %d: %v\n", i, err)
			return t1.Sub(t0), false
		}
		if traced {
			snap := cfg.Obs.Snapshot()
			fl.add(snap, res)
			tr.record(fleetTree(t0.UnixNano(), t1.UnixNano(), snap))
		}
		return t1.Sub(t0), true
	}
	w, err := measure(p.seconds, setup, func(first int, d time.Duration) segment { return closedLoop(first, d, 1, 0, run) })
	if err != nil {
		return nil, err
	}
	r := newReport(w, p)
	if !p.trace {
		endToEnd(r, setup, w, fleetConfigs, false)
		return r, nil
	}
	r.metrics = map[string]float64{}
	fl.report(r.metrics)
	if fl.runs > 0 {
		r.metrics["fleet.alloc_mb_per_run"] = float64(fl.allocs) / (1 << 20) / float64(fl.runs)
	}
	return r, finishTrace(r, p, name, tr, tr.layers(), "fleet.run", w)
}

// fleetDigest runs cfg and returns the SHA-256 of its JSON result.
func fleetDigest(cfg fleet.Config) ([32]byte, error) {
	res, err := fleet.Run(cfg)
	if err != nil {
		return [32]byte{}, err
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(raw), nil
}

// checkFleet is the fleet's correctness gate: packet outcomes are
// conserved and the result is byte-identical to the single-worker
// reference run.
func checkFleet(res *fleet.Result, ref [32]byte) error {
	if err := checkConservation(res); err != nil {
		return err
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return checkDigest(raw, ref)
}

// checkConservation checks that every (timeline packet, tag) pair has
// exactly one outcome.
func checkConservation(res *fleet.Result) error {
	sum := 0
	for _, n := range res.Outcomes {
		sum += n
	}
	if want := res.Events * res.NumTags; sum != want {
		return fmt.Errorf("outcomes sum to %d, want %d packets × %d tags = %d", sum, res.Events, res.NumTags, want)
	}
	return nil
}

func checkDigest(raw []byte, ref [32]byte) error {
	if sha256.Sum256(raw) != ref {
		return fmt.Errorf("result differs from the reference run (%d bytes)", len(raw))
	}
	return nil
}

// fleetTree lays the engine's phase timers end to end from the run's
// start under the benchmark's run span. The engine records durations
// only, so the phases' positions are nominal; the time they leave
// uncovered is the run's unaccounted time.
func fleetTree(start, end int64, snap obs.Snapshot) []node {
	tree := []node{{"fleet.run", -1, start, end}}
	at := start
	for _, ph := range fleetPhases {
		d := snap.Stages["fleet."+ph].TotalNS
		tree = append(tree, node{"fleet." + ph, 0, at, at + d})
		at += d
	}
	return tree
}

// fleetLayers accumulates the per-run fleet telemetry of a traced run:
// the engine's stage timers and shard histogram from its private
// registry, and work and waste counts from the public Result.
type fleetLayers struct {
	runs        int
	phaseNS     map[string]int64
	unaccounted int64
	shards      obs.HistogramSnapshot
	responses   int
	useful      int
	entries     int
	lookups     int64
	misses      int64
	allocs      uint64
}

func (f *fleetLayers) add(snap obs.Snapshot, res *fleet.Result) {
	if f.phaseNS == nil {
		f.phaseNS = map[string]int64{}
	}
	f.runs++
	run := snap.Stages["fleet.run"].TotalNS
	for _, ph := range fleetPhases {
		d := snap.Stages["fleet."+ph].TotalNS
		f.phaseNS[ph] += d
		run -= d
	}
	f.unaccounted += run
	h := snap.Histograms["fleet.shard_ns"]
	if f.shards.Counts == nil {
		f.shards = obs.HistogramSnapshot{Bounds: h.Bounds, Counts: append([]int64(nil), h.Counts...)}
	} else {
		for i := range h.Counts {
			f.shards.Counts[i] += h.Counts[i]
		}
	}
	f.shards.Count += h.Count
	f.shards.Sum += h.Sum
	o := res.Outcomes
	useful := o[sim.Delivered] + o[sim.DecodedConcurrent]
	f.useful += useful
	f.responses += useful + o[sim.CrossCollided] + o[sim.LostDownlink]
	f.entries += res.Cache.Entries
	f.lookups += res.Cache.LinkLookups + res.Cache.BitsLookups
	f.misses += res.Cache.LinkMisses + res.Cache.BitsMisses
}

func (f *fleetLayers) report(m map[string]float64) {
	if f.runs == 0 {
		return
	}
	n := float64(f.runs)
	for _, ph := range fleetPhases {
		m["fleet."+ph+"_ms"] = float64(f.phaseNS[ph]) / 1e6 / n
	}
	m["fleet.unaccounted_ms"] = float64(f.unaccounted) / 1e6 / n
	if p50 := f.shards.Quantile(0.5); p50 > 0 {
		m["fleet.shard_skew"] = f.shards.Quantile(0.99) / p50
	}
	m["fleet.responses"] = float64(f.responses) / n
	if f.responses > 0 {
		m["fleet.useful_frac"] = float64(f.useful) / float64(f.responses)
	}
	m["fleet.cache_entries"] = float64(f.entries) / n
	if f.lookups > 0 {
		m["fleet.cache_miss_frac"] = float64(f.misses) / float64(f.lookups)
	}
}
