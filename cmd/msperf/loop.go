package main

import (
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opStat is one operation's outcome. i is the operation's index in
// issue order across the run, lat its latency and done when it
// completed.
type opStat struct {
	i    int
	lat  time.Duration
	done time.Time
	ok   bool
}

// segment is one stretch of measurement between two calibrations.
type segment struct {
	start time.Time
	ops   []opStat
	// busyClock marks a single-caller loop, whose rate is taken over the
	// time operations ran, so the benchmark's own untimed checks between
	// operations do not count against the program.
	busyClock bool
}

// window is a run's whole measurement: its segments and the
// calibrations taken before the first segment and after each one.
type window struct {
	segs   []segment
	calibs []float64
	steal  float64
}

// segmentSeconds is the length of one segment. Calibrating and timing
// set-ups every second samples more of the host's fast and slow spells
// than every two seconds did (pipeline setup_s spread 0.21 against 0.31
// over ten seeds), while spending under 5% of the run on it.
const segmentSeconds = 1.0

// measure runs segments back to back until `seconds` of measurement
// have passed, calibrating before the first segment and after each one,
// and timing a batch of set-ups with each calibration. Segments last
// about segmentSeconds; one may end sooner (serve-repeat caps its jobs
// per segment), and then more segments follow. seg receives the index of
// its first operation and its time budget.
func measure(seconds float64, setup *setupClock, seg func(first int, d time.Duration) segment) (window, error) {
	total := time.Duration(seconds * float64(time.Second))
	d := total / time.Duration(max(1, int(seconds/segmentSeconds+0.5)))
	var w window
	checkpoint := func() error {
		w.calibs = append(w.calibs, calibrate())
		return setup.batch()
	}
	if err := checkpoint(); err != nil {
		return w, err
	}
	steal0, total0 := cpuJiffies()
	first := 0
	for spent := time.Duration(0); spent < total; {
		t0 := time.Now()
		sg := seg(first, min(d, total-spent))
		spent += time.Since(t0)
		if len(sg.ops) == 0 {
			break
		}
		first += len(sg.ops)
		w.segs = append(w.segs, sg)
		if err := checkpoint(); err != nil {
			return w, err
		}
	}
	if steal1, total1 := cpuJiffies(); total1 > total0 {
		w.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	return w, nil
}

// closedLoop calls op back to back from `callers` goroutines for d, or
// until maxOps operations were issued when maxOps > 0, then waits for
// the calls in flight. op returns the latency it measured and whether
// its output was correct.
func closedLoop(first int, d time.Duration, callers, maxOps int, op func(i int) (time.Duration, bool)) segment {
	sg := segment{start: time.Now(), busyClock: callers == 1}
	deadline := sg.start.Add(d)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				if maxOps > 0 && k >= maxOps {
					return
				}
				lat, ok := op(first + k)
				done := time.Now()
				mu.Lock()
				sg.ops = append(sg.ops, opStat{i: first + k, lat: lat, done: done, ok: ok})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return sg
}

func (w window) ops() []opStat {
	var out []opStat
	for _, sg := range w.segs {
		out = append(out, sg.ops...)
	}
	return out
}

func (w window) counts() (attempted, failed int) {
	ops := w.ops()
	for _, o := range ops {
		if !o.ok {
			failed++
		}
	}
	return len(ops), failed
}

// latMS returns the latencies in milliseconds of the operations keep
// selects (all when keep is nil).
func (w window) latMS(keep func(i int) bool) []float64 {
	var out []float64
	for _, o := range w.ops() {
		if keep == nil || keep(o.i) {
			out = append(out, ms(o.lat))
		}
	}
	return out
}

// rate is the median, over blocks of `block` consecutive completions
// within a segment, of completions per second. The median over blocks
// keeps a short burst of host contention from moving the rate. A window
// too short for one block is taken as one block.
func (w window) rate(block int) float64 {
	if n := len(w.ops()); n < block {
		block = max(1, n)
	}
	var rates []float64
	for _, sg := range w.segs {
		ops := append([]opStat(nil), sg.ops...)
		sort.Slice(ops, func(a, b int) bool { return ops[a].done.Before(ops[b].done) })
		prev, busy := sg.start, time.Duration(0)
		for k, o := range ops {
			busy += o.lat
			if (k+1)%block != 0 {
				continue
			}
			if sg.busyClock {
				rates = append(rates, float64(block)/busy.Seconds())
			} else {
				rates = append(rates, float64(block)/o.done.Sub(prev).Seconds())
			}
			prev, busy = o.done, 0
		}
	}
	return median(rates)
}

// speed is the run's median calibration relative to the reference
// machine's: above one, the host ran slower than the reference.
func (w window) speed() float64 { return median(w.calibs) / calibNominalMS }

// tracedOp picks the operations a traced run records spans for: blocks
// of four (the serve scenarios cycle in fours) alternate between traced
// and untraced, so the two halves see the same input mix and the same
// machine state, and their p50s give the tracing overhead.
func tracedOp(i int) bool { return (i/4)%2 == 0 }

// traceOverhead is the traced operations' p50 relative to the untraced
// operations' p50, minus one.
func (w window) traceOverhead() float64 {
	on := median(w.latMS(tracedOp))
	off := median(w.latMS(func(i int) bool { return !tracedOp(i) }))
	if off == 0 {
		return 0
	}
	return on/off - 1
}

// setupClock times a workload's set-up: the program's constructors that
// build the state a workload needs before its first operation. build
// makes one instance and returns a function that releases it (nil when
// nothing needs releasing). The host has fast and slow spells lasting a
// fraction of a second, and set-up takes well under a millisecond, so a
// batch of set-ups lands in one spell; batches spread over the run give
// every run a similar mix.
type setupClock struct {
	build func() (release func(), err error)
	times []float64
}

// setupBatchReps is the number of set-ups timed per batch.
const setupBatchReps = 9

// batch times setupBatchReps set-ups with the collector paused, so a
// collection that happens to overlap one does not count as set-up work.
func (c *setupClock) batch() error {
	runtime.GC()
	defer runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for r := 0; r < setupBatchReps; r++ {
		t0 := time.Now()
		release, err := c.build()
		c.times = append(c.times, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		if release != nil {
			release()
		}
	}
	return nil
}

// newReport starts a run's report from its window: operation counts
// and host noise.
func newReport(w window, p params) *report {
	r := &report{noise: newNoise(w.steal, w.calibs, p.bench.bound("p50_ms"))}
	r.attempted, r.failed = w.counts()
	return r
}

// endToEnd sets the end-to-end metrics of an untraced run. The raw
// numbers are the median of every set-up timed, the median completion
// rate over blocks of `block` operations, the p50 and p90 latency over
// every attempted operation, and the process's peak RSS. The reported
// times and rate are scaled to the reference machine's speed by the
// run's calibration, except the rate of an open loop, which the
// generator sets.
func endToEnd(r *report, setup *setupClock, w window, block int, openLoop bool) {
	lat := w.latMS(nil)
	r.raw = map[string]float64{
		"setup_s":     median(setup.times),
		"ops_per_s":   w.rate(block),
		"p50_ms":      quantile(lat, 0.5),
		"p90_ms":      quantile(lat, 0.9),
		"peak_rss_mb": peakRSSMB(),
	}
	f := w.speed()
	r.metrics = map[string]float64{
		"setup_s":     r.raw["setup_s"] / f,
		"ops_per_s":   r.raw["ops_per_s"] * f,
		"p50_ms":      r.raw["p50_ms"] / f,
		"p90_ms":      r.raw["p90_ms"] / f,
		"peak_rss_mb": r.raw["peak_rss_mb"],
	}
	if openLoop {
		r.metrics["ops_per_s"] = r.raw["ops_per_s"]
	}
}

// finishTrace adds the metrics every traced run reports: how much of
// the operations' wall time layer spans cover, the tracing overhead, the
// host noise, and the dsp kernel timings. It writes the span files when
// asked to.
func finishTrace(r *report, p params, name string, tr *tracer, ls layerStats, root string, w window) error {
	r.metrics["trace.coverage_frac"] = ls.coverage(root)
	r.metrics["trace.min_op_coverage_frac"] = ls.minCoverage
	r.metrics["trace.overhead_frac"] = w.traceOverhead()
	r.metrics["noise.steal_frac"] = r.noise.StealFrac
	r.metrics["noise.calib_drift_frac"] = r.noise.DriftFrac
	for k, v := range dspKernels() {
		r.metrics[k] = v
	}
	if p.spans == "" {
		return nil
	}
	return tr.writeSpans(p.spans, name)
}

// allocBytes returns the bytes the process has allocated so far.
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
