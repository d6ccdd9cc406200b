package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"multiscatter/internal/obs"
)

// mustRun submits jc and waits for it to finish in the done state.
func mustRun(t *testing.T, m *Manager, jc JobConfig) *Job {
	t.Helper()
	j, err := m.Submit(jc)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != StateDone {
		t.Fatalf("%s: state %s, err %q", j.ID, j.State(), j.Err())
	}
	return j
}

// waitState polls until j reaches state s.
func waitState(t *testing.T, j *Job, s State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for j.State() != s {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %s (state %s)", j.ID, s, j.State())
		}
		time.Sleep(time.Millisecond)
	}
}

// requireReused asserts that j was served from src's result at
// admission: done on return, the same result pointer and bytes, the
// reuse marks on its status and span, and no engine metrics.
func requireReused(t *testing.T, j, src *Job) {
	t.Helper()
	select {
	case <-j.Done():
	default:
		t.Fatalf("%s: Done not closed on return from Submit", j.ID)
	}
	if j.State() != StateDone {
		t.Fatalf("%s: state %s on return from Submit, want done", j.ID, j.State())
	}
	if j.Result() != src.Result() || &j.ResultJSON()[0] != &src.ResultJSON()[0] {
		t.Fatalf("%s does not share the result of %s", j.ID, src.ID)
	}
	if got := j.Status().ReusedFrom; got != src.ID {
		t.Fatalf("%s: reused_from %q, want %q", j.ID, got, src.ID)
	}
	spans := j.Spans()
	if len(spans) != 1 || spans[0].Name != "job" || spans[0].EndUnixNS == 0 {
		t.Fatalf("%s: timeline %+v, want one ended root span", j.ID, spans)
	}
	if a := spans[0].Attrs; a["reused"] != src.ID || a["state"] != string(StateDone) || a["id"] != j.ID {
		t.Fatalf("%s: root attrs %v", j.ID, a)
	}
	if snap := j.Metrics(); len(snap.Counters)+len(snap.Stages)+len(snap.Histograms)+len(snap.Gauges) != 0 {
		t.Fatalf("%s: reused job has engine metrics %+v", j.ID, snap)
	}
}

// requireRan asserts that j was not served from the reuse index.
func requireRan(t *testing.T, j *Job) {
	t.Helper()
	if from := j.Status().ReusedFrom; from != "" {
		t.Fatalf("%s (%+v) reused the result of %s, want a run of its own", j.ID, j.Config, from)
	}
	if _, ok := spanByName(j.Spans())["queued"]; !ok {
		t.Fatalf("%s: no queued span, so it never entered the queue", j.ID)
	}
}

// otherValue returns a valid value for field f of JobConfig that differs
// from v, for the one-field-changed reuse cases.
func otherValue(t *testing.T, f reflect.StructField, v reflect.Value) reflect.Value {
	t.Helper()
	out := reflect.New(f.Type).Elem()
	switch f.Type.Kind() {
	case reflect.String:
		alt := map[string]string{"Scenario": "office", "Baseline": "doubledecker"}[f.Name]
		if alt == "" || alt == v.String() {
			t.Fatalf("JobConfig.%s: no alternative value; add one to otherValue", f.Name)
		}
		out.SetString(alt)
	case reflect.Int, reflect.Int64:
		out.SetInt(v.Int() + 1)
	case reflect.Float64:
		out.SetFloat(v.Float() + 1)
	default:
		t.Fatalf("JobConfig.%s: kind %s not handled; extend otherValue", f.Name, f.Type.Kind())
	}
	return out
}

// TestResultReuse pins result reuse: which repeats are served the stored
// result at admission, and which always run.
func TestResultReuse(t *testing.T) {
	cases := []struct {
		name   string
		limits Limits
		gated  bool
		run    func(t *testing.T, m *Manager, gate chan struct{})
	}{
		{name: "repeat shares the result", run: func(t *testing.T, m *Manager, _ chan struct{}) {
			src := mustRun(t, m, smallJob(1))
			reg := m.Registry()
			packets := reg.Counter("serve.packets_simulated").Load()
			merged := m.MergedJobMetrics().Counters["fleet.packets"]
			j, err := m.Submit(smallJob(1))
			if err != nil {
				t.Fatal(err)
			}
			requireReused(t, j, src)
			if !bytes.Equal(j.ResultJSON(), standaloneJSON(t, j.Config)) {
				t.Fatal("reused result differs from a standalone run")
			}
			// The index points at the newest done job; reused_from keeps
			// naming the job that ran.
			again, err := m.Submit(smallJob(1))
			if err != nil {
				t.Fatal(err)
			}
			requireReused(t, again, src)
			for name, want := range map[string]int64{
				"serve.jobs_submitted":    3,
				"serve.jobs_done":         3,
				"serve.jobs_reused":       2,
				"serve.packets_simulated": packets,
			} {
				if got := reg.Counter(name).Load(); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			if got := m.MergedJobMetrics().Counters["fleet.packets"]; got != merged {
				t.Errorf("/metrics/jobs fleet.packets moved %d → %d on reuse", merged, got)
			}
			snap := reg.Snapshot()
			if n := snap.Histograms["serve.latency.e2e_ms"].Count; n != 3 {
				t.Errorf("e2e latency count %d, want 3", n)
			}
			for _, name := range []string{"serve.latency.queue_wait_ms", "serve.latency.run_ms"} {
				if n := snap.Histograms[name].Count; n != 1 {
					t.Errorf("%s count %d, want 1 (the run only)", name, n)
				}
			}
			if h := m.Health(); h.Jobs != 3 || h.JobsDone != 3 || h.JobsPending+h.JobsRunning != 0 {
				t.Errorf("health after reuse: %+v", h)
			}
		}},
		{name: "explicit defaults and zero values hit each other", run: func(t *testing.T, m *Manager, _ chan struct{}) {
			zero := smallJob(0)
			src := mustRun(t, m, zero)
			explicit := smallJob(1)
			explicit.Receivers, explicit.CaptureDB, explicit.BucketMS = 1, 10, 500
			j, err := m.Submit(explicit)
			if err != nil {
				t.Fatal(err)
			}
			requireReused(t, j, src)
		}},
		{name: "any changed field misses", run: func(t *testing.T, m *Manager, _ chan struct{}) {
			base := smallJob(1)
			base.Normalize()
			mustRun(t, m, base)
			typ := reflect.TypeOf(base)
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				jc := base
				v := reflect.ValueOf(&jc).Elem().Field(i)
				v.Set(otherValue(t, f, v))
				j, err := m.Submit(jc)
				if err != nil {
					t.Fatalf("%s changed: %v", f.Name, err)
				}
				requireRan(t, j)
				waitDone(t, j)
			}
		}},
		{name: "a traced job always runs", run: func(t *testing.T, m *Manager, _ chan struct{}) {
			jc := smallJob(2)
			jc.TraceSample = 1
			first := mustRun(t, m, jc)
			second := mustRun(t, m, jc)
			requireRan(t, second)
			if len(first.Trace()) == 0 || len(second.Trace()) == 0 {
				t.Fatal("traced job captured no trace")
			}
			if &first.Trace()[0] == &second.Trace()[0] {
				t.Fatal("traced jobs share one trace")
			}
			if !bytes.Equal(first.ResultJSON(), second.ResultJSON()) {
				t.Fatal("traced reruns disagree")
			}
		}},
		{name: "a budget failure is never a source", run: func(t *testing.T, m *Manager, _ chan struct{}) {
			jc := JobConfig{Scenario: "home", Tags: 2, SpanMS: 5000, MaxPackets: 10}
			for range 2 {
				j, err := m.Submit(jc)
				if err != nil {
					t.Fatal(err)
				}
				requireRan(t, j)
				waitDone(t, j)
				if j.State() != StateFailed {
					t.Fatalf("%s: state %s, want failed through the engine", j.ID, j.State())
				}
			}
		}},
		{name: "an in-flight duplicate runs itself", gated: true, run: func(t *testing.T, m *Manager, gate chan struct{}) {
			first, err := m.Submit(smallJob(3))
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, first, StateRunning)
			dup, err := m.Submit(smallJob(3))
			if err != nil {
				t.Fatal(err)
			}
			requireRan(t, dup)
			close(gate)
			waitDone(t, first)
			waitDone(t, dup)
			if dup.State() != StateDone || !bytes.Equal(dup.ResultJSON(), first.ResultJSON()) {
				t.Fatalf("duplicate: state %s, equal bytes %v", dup.State(), bytes.Equal(dup.ResultJSON(), first.ResultJSON()))
			}
			if &dup.ResultJSON()[0] == &first.ResultJSON()[0] {
				t.Fatal("in-flight duplicate shares its twin's result")
			}
			hit, err := m.Submit(smallJob(3))
			if err != nil {
				t.Fatal(err)
			}
			if from := hit.Status().ReusedFrom; from != first.ID && from != dup.ID {
				t.Fatalf("repeat after both finished: reused_from %q", from)
			}
		}},
		{name: "cancel on a reused job is a no-op", run: func(t *testing.T, m *Manager, _ chan struct{}) {
			src := mustRun(t, m, smallJob(4))
			j, err := m.Submit(smallJob(4))
			if err != nil {
				t.Fatal(err)
			}
			j.Cancel()
			if err := m.Cancel(j.ID); err != nil {
				t.Fatal(err)
			}
			requireReused(t, j, src)
			if h := m.Health(); h.JobsCancelled != 0 || h.JobsDone != 2 {
				t.Fatalf("health after cancelling a reused job: %+v", h)
			}
		}},
		{name: "a hit is admitted while the queue is full", limits: Limits{MaxRunning: 1, MaxQueue: 1}, gated: true,
			run: func(t *testing.T, m *Manager, gate chan struct{}) {
				src, err := m.Submit(smallJob(5))
				if err != nil {
					t.Fatal(err)
				}
				gate <- struct{}{}
				waitDone(t, src)
				running, err := m.Submit(smallJob(6))
				if err != nil {
					t.Fatal(err)
				}
				waitState(t, running, StateRunning)
				if _, err := m.Submit(smallJob(7)); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Submit(smallJob(8)); !errors.Is(err, ErrBusy) {
					t.Fatalf("full queue: %v, want ErrBusy", err)
				}
				j, err := m.Submit(smallJob(5))
				if err != nil {
					t.Fatalf("hit on a full queue: %v", err)
				}
				requireReused(t, j, src)
				if h := m.Health(); h.JobsPending != 1 || h.JobsRunning != 1 || h.JobsDone != 2 || h.QueueDepth != 1 {
					t.Fatalf("health with a full queue: %+v", h)
				}
			}},
		{name: "a hit is refused while draining", run: func(t *testing.T, m *Manager, _ chan struct{}) {
			mustRun(t, m, smallJob(9))
			m.Drain(context.Background())
			if _, err := m.Submit(smallJob(9)); !errors.Is(err, ErrDraining) {
				t.Fatalf("hit while draining: %v, want ErrDraining", err)
			}
		}},
		{name: "a hit is listed only with its counters recorded", run: func(t *testing.T, m *Manager, _ chan struct{}) {
			mustRun(t, m, smallJob(10))
			submitted := make(chan struct{})
			defer func() { <-submitted }()
			go func() {
				defer close(submitted)
				for range 500 {
					if _, err := m.Submit(smallJob(10)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for finished := false; !finished; {
				select {
				case <-submitted:
					finished = true
				default:
				}
				listed := 0
				for _, j := range m.Jobs() {
					if j.Status().ReusedFrom == "" {
						continue
					}
					listed++
				}
				if n := m.Registry().Counter("serve.jobs_reused").Load(); n < int64(listed) {
					t.Fatalf("%d reused jobs listed, serve.jobs_reused = %d", listed, n)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var gate chan struct{}
			if tc.gated {
				gate = make(chan struct{})
			}
			m := NewManager(Config{
				PoolWorkers:     2,
				Limits:          tc.limits,
				Obs:             obs.NewRegistry(),
				HistoryInterval: -1,
				testGate:        gate,
			})
			defer m.Close()
			if gate != nil {
				// Runners parked on the gate would block Close.
				defer func() {
					select {
					case <-gate:
					default:
						close(gate)
					}
				}()
			}
			tc.run(t, m, gate)
		})
	}
}

// soakJob is a one-tag deployment: the cheapest job that still runs the
// whole engine.
func soakJob(seed int64) JobConfig {
	return JobConfig{Scenario: "home", Tags: 1, FloorW: 6, FloorH: 6, SpanMS: 100, Seed: seed}
}

// heapAfterGC returns the live heap after a full collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// requireGoroutinesAtMost waits up to 10 s for the goroutine count to
// fall to base, failing the test if it does not.
func requireGoroutinesAtMost(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRetentionSoak submits 50k jobs to one manager, most of them
// repeats, and checks that retention keeps the manager bounded: the
// heap stays flat, listings stay within the limit, evicted IDs answer
// 404, an evicted config runs again, and the health tallies add up.
func TestRetentionSoak(t *testing.T) {
	const (
		total    = 50_000
		retained = 256
		configs  = 64
	)
	base := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	m := NewManager(Config{
		PoolWorkers:     2,
		Obs:             reg,
		HistoryInterval: -1,
		testRetained:    retained,
	})
	h := Handler(m, reg)
	do := func(method, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec
	}

	var (
		heap10k   uint64
		firstID   string
		evicted   JobConfig
		firstRaw  []byte
		runs      int
		overLimit int
	)
	// One timer for the whole loop: waitDone's per-call timer would sit
	// on the heap being measured.
	stuck := time.NewTimer(5 * time.Minute)
	defer stuck.Stop()
	for i := range total {
		jc := soakJob(int64(i%configs + 1))
		if i%100 == 99 {
			jc = soakJob(int64(1000 + i)) // a fresh config
		}
		j, err := m.Submit(jc)
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		select {
		case <-j.Done():
		case <-stuck.C:
			t.Fatalf("soak stuck at submission %d: %s is %s", i, j.ID, j.State())
		}
		if j.State() != StateDone {
			t.Fatalf("%s: state %s, err %q", j.ID, j.State(), j.Err())
		}
		if j.Status().ReusedFrom == "" {
			runs++
		}
		switch i {
		case 0:
			firstID = j.ID
		case 99:
			evicted, firstRaw = jc, j.ResultJSON()
		case 10_000 - 1:
			heap10k = heapAfterGC()
		}
		if i%1000 == 0 {
			hl := m.Health()
			overLimit = max(overLimit, len(m.Jobs())-hl.JobsPending-hl.JobsRunning-retained)
		}
	}
	heap50k := heapAfterGC()
	t.Logf("heap after GC: %.1f MB at 10k jobs, %.1f MB at 50k; %d runs", float64(heap10k)/1e6, float64(heap50k)/1e6, runs)
	if heap50k > heap10k+2<<20 {
		t.Errorf("heap grew %.1f MB between 10k and 50k jobs", float64(heap50k-heap10k)/1e6)
	}
	if overLimit > 0 {
		t.Errorf("up to %d terminal jobs retained beyond the limit of %d", overLimit, retained)
	}
	if n := len(m.Jobs()); n != retained {
		t.Errorf("%d jobs retained, want %d", n, retained)
	}

	for _, req := range [][2]string{
		{http.MethodGet, "/jobs/" + firstID},
		{http.MethodGet, "/jobs/" + firstID + "/result"},
		{http.MethodGet, "/jobs/" + firstID + "/spans"},
		{http.MethodPost, "/jobs/" + firstID + "/cancel"},
	} {
		if code := do(req[0], req[1]).Code; code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404 after eviction", req[0], req[1], code)
		}
	}

	again := mustRun(t, m, evicted)
	requireRan(t, again)
	if !bytes.Equal(again.ResultJSON(), firstRaw) {
		t.Error("evicted config's rerun differs from its first run")
	}
	runs++

	var hl Health
	if err := json.Unmarshal(do(http.MethodGet, "/healthz").Body.Bytes(), &hl); err != nil {
		t.Fatal(err)
	}
	if hl.JobsDone != total+1 || hl.JobsFailed+hl.JobsCancelled+hl.JobsPending+hl.JobsRunning != 0 || hl.Jobs != retained {
		t.Errorf("/healthz %+v, want %d done and %d retained", hl, total+1, retained)
	}
	for name, want := range map[string]int64{
		"serve.jobs_submitted": total + 1,
		"serve.jobs_done":      total + 1,
		"serve.jobs_reused":    int64(total + 1 - runs),
	} {
		if got := reg.Counter(name).Load(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	m.Close()
	requireGoroutinesAtMost(t, base)
}

// TestRetentionEvictsOldestFinished pins the eviction order: the job
// that finished first goes first, pending and running jobs stay, and a
// config's index entry survives as long as its newest done job.
func TestRetentionEvictsOldestFinished(t *testing.T) {
	gate := make(chan struct{})
	m := NewManager(Config{
		PoolWorkers:     2,
		Limits:          Limits{MaxRunning: 1},
		Obs:             obs.NewRegistry(),
		HistoryInterval: -1,
		testGate:        gate,
		testRetained:    2,
	})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer m.Close()
	defer release()

	a, err := m.Submit(smallJob(1))
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{}
	waitDone(t, a)
	pinned, err := m.Submit(smallJob(2)) // runs, parked on the gate
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, pinned, StateRunning)
	b, _ := m.Submit(smallJob(1)) // reuses a
	c, _ := m.Submit(smallJob(1)) // reuses b's entry; a is evicted
	ids := func() []string {
		var out []string
		for _, j := range m.Jobs() {
			out = append(out, j.ID)
		}
		return out
	}
	if got, want := ids(), []string{pinned.ID, b.ID, c.ID}; !reflect.DeepEqual(got, want) {
		t.Fatalf("retained %v, want %v", got, want)
	}
	if _, ok := m.Get(a.ID); ok {
		t.Fatalf("%s still retained", a.ID)
	}
	if err := m.Cancel(a.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel evicted job: %v, want ErrNotFound", err)
	}
	d, _ := m.Submit(smallJob(1))
	requireReused(t, d, a) // the entry moved on with the newest job
	release()
	waitDone(t, pinned)
	if got, want := ids(), []string{pinned.ID, d.ID}; !reflect.DeepEqual(got, want) {
		t.Fatalf("retained %v after the pinned job finished, want %v", got, want)
	}
}

// TestReusedJobsCountTowardRetention pins what retention means for a
// client of the two-step API: reused jobs are terminal jobs like any
// other, so hits alone can evict a job whose result was never fetched,
// while a ?wait=1 stream carries its result in its own response.
func TestReusedJobsCountTowardRetention(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(Config{PoolWorkers: 2, Obs: reg, HistoryInterval: -1, testRetained: 2})
	defer m.Close()
	h := Handler(m, reg)
	post := func(path string, jc JobConfig) *httptest.ResponseRecorder {
		body, err := json.Marshal(jc)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}

	rec := post("/jobs", smallJob(1))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", rec.Code, rec.Body)
	}
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	unfetched, _ := m.Get(st.ID)
	waitDone(t, unfetched)
	src := mustRun(t, m, smallJob(2))
	if rec := post("/jobs", smallJob(2)); rec.Code != http.StatusAccepted {
		t.Fatalf("hit: %d %s", rec.Code, rec.Body)
	}
	get := httptest.NewRecorder()
	h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, "/jobs/"+st.ID+"/result", nil))
	if get.Code != http.StatusNotFound {
		t.Fatalf("result of a job evicted by hits: status %d, want 404", get.Code)
	}

	rec = post("/jobs?wait=1", smallJob(2))
	var ev jobEvent
	if err := json.Unmarshal(rec.Body.Bytes(), &ev); err != nil {
		t.Fatalf("?wait=1 hit: %v in %q", err, rec.Body)
	}
	if ev.Event != "result" || !bytes.Equal(ev.Result, src.ResultJSON()) {
		t.Fatalf("?wait=1 hit streamed %s/%s, want the stored result", ev.Event, ev.State)
	}
	if got := reg.Counter("serve.jobs_reused").Load(); got != 2 {
		t.Fatalf("serve.jobs_reused = %d, want 2", got)
	}
}
