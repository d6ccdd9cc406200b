package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"multiscatter/internal/obs"
	"multiscatter/internal/serve"
)

const (
	// steadyRate is serve-steady's offered load, about 60% of the
	// service's closed-loop capacity on two cores: below the knee, where
	// latency is steady run to run.
	steadyRate = 400
	// repeatConfigs is how many distinct jobs serve-repeat cycles.
	repeatConfigs = 64
	// repeatSegmentJobs caps the jobs of one serve-repeat segment. The
	// manager keeps every finished job, and each segment runs on a fresh
	// manager; with the cap, a faster service does not hold more jobs at
	// once and so does not read as using more memory.
	repeatSegmentJobs = 1000
)

// benchJobs returns n jobs of the serve.BenchJobs shape (8 tags, 12×18 m,
// 2 receivers, 1 s span, scenarios cycling) whose seeds are distinct and
// derived from seed.
func benchJobs(seed int64, n int) []serve.JobConfig {
	jobs := serve.BenchJobs(n)
	base := rand.New(rand.NewSource(seed)).Int63n(1 << 40)
	for i := range jobs {
		jobs[i].Seed = base + int64(i) + 1
	}
	return jobs
}

func steadyJobs(seed int64, seconds float64) []serve.JobConfig {
	return benchJobs(seed, max(1, int(steadyRate*seconds+0.5)))
}

func repeatJobs(seed int64) []serve.JobConfig { return benchJobs(seed, repeatConfigs) }

// serveRig is the service under test: a manager with default limits and
// its HTTP handler, called in-process so the benchmark measures the
// program and not the kernel's loopback.
type serveRig struct {
	m *serve.Manager
	h http.Handler
}

func newServeRig() *serveRig {
	reg := obs.NewRegistry()
	m := serve.NewManager(serve.Config{Obs: reg})
	return &serveRig{m: m, h: serve.Handler(m, reg)}
}

func (s *serveRig) close() { s.m.Close() }

// post submits one job with ?wait=1 and returns the last NDJSON line of
// the response, written when the job has finished.
func (s *serveRig) post(body []byte) ([]byte, error) {
	req := httptest.NewRequest(http.MethodPost, "/jobs?wait=1", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	out := bytes.TrimRight(rec.Body.Bytes(), "\n")
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	return out, nil
}

// checkResultLine is the service's correctness gate: the final line is
// a "result" event whose result bytes equal the JSON of a standalone
// fleet run of the same job. It returns the job's ID.
func checkResultLine(line []byte, ref [32]byte) (string, error) {
	var ev struct {
		Event  string          `json:"event"`
		ID     string          `json:"id"`
		State  string          `json:"state"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(line, &ev); err != nil {
		return "", fmt.Errorf("final line: %w", err)
	}
	if ev.Event != "result" || ev.State != string(serve.StateDone) {
		return ev.ID, fmt.Errorf("job %s ended %s/%s: %s", ev.ID, ev.Event, ev.State, ev.Error)
	}
	return ev.ID, checkDigest(ev.Result, ref)
}

// serveRefs computes each job's reference digest, json.Marshal of a
// standalone fleet.Run, on GOMAXPROCS goroutines.
func serveRefs(jobs []serve.JobConfig) ([][32]byte, error) {
	refs := make([][32]byte, len(jobs))
	reg := obs.NewRegistry()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, runtime.GOMAXPROCS(0))
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				cfg, err := jobs[i].FleetConfig()
				if err != nil {
					errs[w] = err
					return
				}
				cfg.Workers, cfg.Obs = 1, reg
				if refs[i], err = fleetDigest(cfg); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
	}
	return refs, nil
}

// serveBench is one serve workload's state: the rig, the jobs with their
// request bodies and reference digests, and the traced run's telemetry.
type serveBench struct {
	// rig is the current segment's service; each segment starts a fresh
	// one and closes it before the next calibration.
	rig    *serveRig
	setup  *setupClock
	bodies [][]byte
	refs   [][32]byte

	tr         *tracer
	mu         sync.Mutex
	fl         fleetLayers
	queue, run []float64
	prefill    []float64
	depthMax   int
}

func newServeBench(p params, jobs []serve.JobConfig) (*serveBench, error) {
	sb := &serveBench{bodies: make([][]byte, len(jobs)), setup: &setupClock{build: func() (func(), error) {
		return newServeRig().close, nil
	}}}
	for i, jc := range jobs {
		b, err := json.Marshal(jc)
		if err != nil {
			return nil, err
		}
		sb.bodies[i] = b
	}
	var err error
	if sb.refs, err = serveRefs(jobs); err != nil {
		return nil, err
	}
	if p.trace {
		sb.tr = &tracer{}
	}
	return sb, nil
}

// op posts job i (cycling the job list), checks its result, and on a
// traced operation records its spans. It returns the request's latency.
func (sb *serveBench) op(i int) (time.Duration, bool) {
	k := i % len(sb.bodies)
	t0 := time.Now()
	line, err := sb.rig.post(sb.bodies[k])
	t1 := time.Now()
	var id string
	if err == nil {
		id, err = checkResultLine(line, sb.refs[k])
	}
	if err != nil {
		fmt.Printf("serve request %d: %v\n", i, err)
		return t1.Sub(t0), false
	}
	if sb.tr != nil && tracedOp(i) {
		sb.traceJob(id, t0.UnixNano(), t1.UnixNano())
	}
	return t1.Sub(t0), true
}

// traceJob attaches the job's own spans (job, queued, running,
// streaming) under the benchmark's request span, with the admission
// time, from request start to the job's root span, as a span of its own.
func (sb *serveBench) traceJob(id string, start, end int64) {
	job, ok := sb.rig.m.Get(id)
	if !ok {
		return
	}
	spans := job.Spans()
	tree := []node{{"serve.request", -1, start, end}, {"serve.admit", 0, start, start}}
	idx := map[int64]int{}
	var queued, running float64
	for _, s := range spans {
		parent := 0
		if s.Parent != 0 {
			parent = idx[s.Parent]
		} else {
			tree[1].end = s.StartUnixNS
		}
		idx[s.ID] = len(tree)
		tree = append(tree, node{"serve." + s.Name, parent, s.StartUnixNS, s.StartUnixNS + s.DurNS})
		switch s.Name {
		case "queued":
			queued = float64(s.DurNS) / 1e6
		case "running":
			running = float64(s.DurNS) / 1e6
		}
	}
	sb.tr.record(tree)
	snap := job.Metrics()
	sb.mu.Lock()
	defer sb.mu.Unlock()
	sb.queue = append(sb.queue, queued)
	sb.run = append(sb.run, running)
	sb.prefill = append(sb.prefill, float64(snap.Stages["fleet.prefill"].TotalNS)/1e6)
	if res := job.Result(); res != nil {
		sb.fl.add(snap, res)
	}
}

// segment runs loop on a fresh service, polling Manager.Health every
// 100 ms for the queue depth on traced runs, and closes the service.
func (sb *serveBench) segment(loop func() segment) segment {
	rig := newServeRig()
	sb.rig = rig
	defer rig.close()
	if sb.tr == nil {
		return loop()
	}
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				sb.depthMax = max(sb.depthMax, rig.m.Health().QueueDepth)
			}
		}
	}()
	defer func() {
		close(stop)
		<-polled
	}()
	return loop()
}

// report assembles the run's metrics; late holds the open-loop
// generator's lateness per request.
func (sb *serveBench) report(p params, name string, w window, block int, late []float64, alloc uint64) (*report, error) {
	r := newReport(w, p)
	if sb.tr == nil {
		// Only the open loop has a generator, and its rate is the
		// generator's, not the service's speed.
		endToEnd(r, sb.setup, w, block, late != nil)
		return r, nil
	}
	layers := sb.tr.layers()
	r.metrics = map[string]float64{
		"serve.admit_ms":          layers.meanMS("serve.admit"),
		"serve.stream_ms":         layers.meanMS("serve.streaming"),
		"serve.queue_wait_p50_ms": quantile(sb.queue, 0.5),
		"serve.queue_wait_p99_ms": quantile(sb.queue, 0.99),
		"serve.run_p50_ms":        quantile(sb.run, 0.5),
		"serve.run_p99_ms":        quantile(sb.run, 0.99),
		"serve.job_prefill_ms":    mean(sb.prefill),
		"serve.queue_depth_max":   float64(sb.depthMax),
		"serve.alloc_kb_per_job":  float64(alloc) / 1024 / float64(max(1, r.attempted)),
		"serve.gen_late_p99_ms":   quantile(late, 0.99),
	}
	sb.fl.report(r.metrics)
	return r, finishTrace(r, p, name, sb.tr, layers, "serve.request", w)
}

// runServeSteady is an open loop: request i is due at i/steadyRate
// seconds into its segment and is sent then whether or not earlier
// requests finished, as independent users would. Latency runs from when
// a request was due, so a stall also charges the requests it delays.
// Every job of the run is distinct.
func runServeSteady(p params) (*report, error) {
	jobs := steadyJobs(p.seed, p.seconds)
	sb, err := newServeBench(p, jobs)
	if err != nil {
		return nil, err
	}
	var late []float64
	a0 := allocBytes()
	w, err := measure(p.seconds, sb.setup, func(first int, d time.Duration) segment {
		return sb.segment(func() segment {
			n := min(len(jobs)-first, max(1, int(steadyRate*d.Seconds()+0.5)))
			interval := time.Second / steadyRate
			sg := segment{start: time.Now().Add(interval)}
			var mu sync.Mutex
			var wg sync.WaitGroup
			for k := 0; k < n; k++ {
				i, due := first+k, sg.start.Add(time.Duration(k)*interval)
				time.Sleep(time.Until(due))
				late = append(late, ms(time.Since(due)))
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, ok := sb.op(i)
					done := time.Now()
					mu.Lock()
					sg.ops = append(sg.ops, opStat{i: i, lat: done.Sub(due), done: done, ok: ok})
					mu.Unlock()
				}()
			}
			wg.Wait()
			return sg
		})
	})
	if err != nil {
		return nil, err
	}
	return sb.report(p, "serve-steady", w, steadyRate, late, allocBytes()-a0)
}

// runServeRepeat is a closed loop: 2×GOMAXPROCS callers each post the
// next job as soon as their previous one finished, cycling 64 configs.
func runServeRepeat(p params) (*report, error) {
	sb, err := newServeBench(p, repeatJobs(p.seed))
	if err != nil {
		return nil, err
	}
	a0 := allocBytes()
	w, err := measure(p.seconds, sb.setup, func(first int, d time.Duration) segment {
		return sb.segment(func() segment {
			return closedLoop(first, d, 2*runtime.GOMAXPROCS(0), repeatSegmentJobs, sb.op)
		})
	})
	if err != nil {
		return nil, err
	}
	return sb.report(p, "serve-repeat", w, 2*repeatConfigs, nil, allocBytes()-a0)
}
