package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"multiscatter/internal/fleet"
	"multiscatter/internal/obs"
)

// smallJob is the tiny deployment used by most tests: fast enough to
// run a hundred of them under -race.
func smallJob(seed int64) JobConfig {
	return JobConfig{
		Scenario: "home",
		Tags:     3,
		FloorW:   10,
		FloorH:   12,
		SpanMS:   250,
		Seed:     seed,
	}
}

// standaloneJSON runs the job's config directly on the engine — the
// msfleet path — and returns the compact result JSON.
func standaloneJSON(t *testing.T, jc JobConfig) []byte {
	t.Helper()
	fcfg, err := jc.FleetConfig()
	if err != nil {
		t.Fatal(err)
	}
	fcfg.Obs = obs.NewRegistry()
	fcfg.Workers = 1
	res, err := fleet.Run(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("%s stuck in state %s", j.ID, j.State())
	}
}

func TestNormalizeDefaults(t *testing.T) {
	var jc JobConfig
	jc.Normalize()
	want := JobConfig{
		Scenario: "office", Tags: 50, FloorW: 30, FloorH: 50,
		Receivers: 1, SpanMS: 10000, Seed: 1, CaptureDB: 10, BucketMS: 500,
	}
	if jc != want {
		t.Fatalf("defaults drifted: %+v", jc)
	}
	jc.Normalize() // idempotent
	if jc != want {
		t.Fatalf("Normalize not idempotent: %+v", jc)
	}
}

// TestByteIdenticalUnder100ConcurrentJobs is the acceptance test: with
// one hundred jobs pinned running concurrently against the shared
// pool, every job's result is byte-identical to a standalone engine
// run with the same (seed, config).
func TestByteIdenticalUnder100ConcurrentJobs(t *testing.T) {
	const n = 100
	gate := make(chan struct{})
	m := NewManager(Config{
		PoolWorkers: 4,
		Limits:      Limits{MaxRunning: n, MaxQueue: 2 * n},
		Obs:         obs.NewRegistry(),
		testGate:    gate,
	})
	jobs := make([]*Job, n)
	for i := range jobs {
		j, err := m.Submit(smallJob(int64(i + 1)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs[i] = j
	}
	// Every runner parks after marking its job running, so all n jobs
	// are provably in flight at once before any result is produced.
	deadline := time.Now().Add(30 * time.Second)
	for {
		running := 0
		for _, j := range jobs {
			if j.State() == StateRunning {
				running++
			}
		}
		if running == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs running", running, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(gate)
	for _, j := range jobs {
		waitDone(t, j)
		if j.State() != StateDone {
			t.Fatalf("%s: state %s, err %q", j.ID, j.State(), j.Err())
		}
	}
	for i, j := range jobs {
		want := standaloneJSON(t, j.Config)
		if !bytes.Equal(j.ResultJSON(), want) {
			t.Errorf("seed %d: service result diverged from standalone run", i+1)
		}
	}
	m.Close()
}

func TestAdmission(t *testing.T) {
	m := NewManager(Config{
		Limits: Limits{MaxTags: 10, MaxSpan: time.Second, MaxPackets: 1000},
		Obs:    obs.NewRegistry(),
	})
	defer m.Close()
	cases := []JobConfig{
		{Scenario: "spaceship"},
		{Tags: 11},
		{SpanMS: 2000},
		{MaxPackets: 2000},
		{Baseline: "hitchhike-fleet"},
	}
	for _, jc := range cases {
		if _, err := m.Submit(jc); !errors.Is(err, ErrRejected) {
			t.Errorf("%+v: want ErrRejected, got %v", jc, err)
		}
	}
	if got := m.Limits().MaxTags; got != 10 {
		t.Fatalf("limits not applied: MaxTags %d", got)
	}
	if n := m.obs.Counter("serve.jobs_rejected").Load(); n != int64(len(cases)) {
		t.Fatalf("jobs_rejected = %d, want %d", n, len(cases))
	}
}

// TestQueueFullAndPendingCancel pins ErrBusy on a full queue and
// immediate termination of a pending job that is cancelled.
func TestQueueFullAndPendingCancel(t *testing.T) {
	gate := make(chan struct{})
	m := NewManager(Config{
		Limits:   Limits{MaxRunning: 1, MaxQueue: 2},
		Obs:      obs.NewRegistry(),
		testGate: gate,
	})
	first, err := m.Submit(smallJob(1))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the single runner to pick it up so the queue is empty.
	deadline := time.Now().Add(10 * time.Second)
	for first.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	second, err := m.Submit(smallJob(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(smallJob(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(smallJob(4)); !errors.Is(err, ErrBusy) {
		t.Fatalf("full queue: want ErrBusy, got %v", err)
	}
	second.Cancel()
	waitDone(t, second)
	if second.State() != StateCancelled {
		t.Fatalf("pending cancel: state %s", second.State())
	}
	close(gate)
	m.Drain(context.Background())
	if first.State() != StateDone {
		t.Fatalf("first job: state %s, err %q", first.State(), first.Err())
	}
}

// TestCancelRunning cancels a job that is provably in the running
// state and expects it to unwind as cancelled, not failed.
func TestCancelRunning(t *testing.T) {
	gate := make(chan struct{})
	m := NewManager(Config{
		Limits:   Limits{MaxRunning: 1, MaxQueue: 2},
		Obs:      obs.NewRegistry(),
		testGate: gate,
	})
	job, err := m.Submit(smallJob(1))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for job.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitDone(t, job)
	if job.State() != StateCancelled {
		t.Fatalf("state %s, err %q", job.State(), job.Err())
	}
	if !strings.Contains(job.Err(), "context canceled") {
		t.Fatalf("err %q does not name the cancellation", job.Err())
	}
	if err := m.Cancel("job-none"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	m.Close()
}

func TestWallBudgetExceeded(t *testing.T) {
	m := NewManager(Config{Obs: obs.NewRegistry()})
	defer m.Close()
	job, err := m.Submit(JobConfig{
		Scenario: "office", Tags: 200, SpanMS: 10000, WallBudgetMS: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if job.State() != StateFailed {
		t.Fatalf("state %s, want failed", job.State())
	}
	if !strings.Contains(job.Err(), "wall-clock budget") {
		t.Fatalf("err %q does not name the wall budget", job.Err())
	}
}

func TestPacketBudgetExceeded(t *testing.T) {
	m := NewManager(Config{Obs: obs.NewRegistry()})
	defer m.Close()
	job, err := m.Submit(JobConfig{Scenario: "home", Tags: 2, SpanMS: 5000, MaxPackets: 10})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if job.State() != StateFailed {
		t.Fatalf("state %s, want failed", job.State())
	}
	if !strings.Contains(job.Err(), "budget") {
		t.Fatalf("err %q does not name the packet budget", job.Err())
	}
}

// TestDrain checks graceful shutdown: queued work finishes, new
// submissions are refused, and metrics from all jobs are merged.
func TestDrain(t *testing.T) {
	m := NewManager(Config{PoolWorkers: 2, Obs: obs.NewRegistry()})
	jobs := make([]*Job, 4)
	for i := range jobs {
		j, err := m.Submit(smallJob(int64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	m.Drain(context.Background())
	for _, j := range jobs {
		if j.State() != StateDone {
			t.Fatalf("%s after drain: state %s, err %q", j.ID, j.State(), j.Err())
		}
	}
	if !m.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	if _, err := m.Submit(smallJob(9)); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining, got %v", err)
	}
	merged := m.MergedJobMetrics()
	if merged.Counters["fleet.packets"] == 0 {
		t.Fatal("merged job metrics missing fleet.packets")
	}
	m.Close() // idempotent with Drain
}

// TestHTTPAPI drives the full HTTP surface against a live handler,
// including the NDJSON wait-for-result stream whose final result bytes
// must equal the standalone run.
func TestHTTPAPI(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(Config{PoolWorkers: 2, Obs: reg})
	defer m.Close()
	srv := httptest.NewServer(Handler(m, reg))
	defer srv.Close()

	jc := smallJob(5)
	jc.TraceSample = 1
	body, _ := json.Marshal(jc)
	resp, err := http.Post(srv.URL+"/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait=1 status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("wait=1 content type %q", ct)
	}
	var lines []jobEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var rawResult json.RawMessage
	for sc.Scan() {
		var ev jobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ev)
		if ev.Event == "result" {
			rawResult = ev.Result
		}
	}
	resp.Body.Close()
	if len(lines) < 2 || lines[0].Event != "state" || lines[len(lines)-1].Event != "result" {
		t.Fatalf("unexpected stream shape: %+v", lines)
	}
	if !bytes.Equal(rawResult, standaloneJSON(t, jc)) {
		t.Fatal("streamed result diverged from standalone run")
	}
	id := lines[0].ID

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.String()
	}

	if resp, body := get("/jobs"); resp.StatusCode != http.StatusOK || !strings.Contains(body, id) {
		t.Fatalf("GET /jobs: %d %q", resp.StatusCode, body)
	}
	if resp, body := get("/jobs/" + id); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"done"`) {
		t.Fatalf("GET /jobs/%s: %d %q", id, resp.StatusCode, body)
	}
	if resp, body := get("/jobs/" + id + "/metrics"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "fleet.packets") {
		t.Fatalf("job metrics: %d %q", resp.StatusCode, body)
	}
	if resp, body := get("/jobs/" + id + "/trace"); resp.StatusCode != http.StatusOK || len(strings.TrimSpace(body)) == 0 {
		t.Fatalf("job trace: %d", resp.StatusCode)
	}
	if resp, body := get("/metrics/jobs"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "fleet.packets") {
		t.Fatalf("merged metrics: %d %q", resp.StatusCode, body)
	}
	if resp, body := get("/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	if resp, _ := get("/obs/metrics"); resp.StatusCode != http.StatusOK {
		t.Fatalf("obs mount: %d", resp.StatusCode)
	}
	if resp, _ := get("/jobs/job-404"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %d", resp.StatusCode)
	}
	if resp, _ := get("/jobs/job-404/trace"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing trace: %d", resp.StatusCode)
	}

	// Submit without wait: 202 + status; the result endpoint then
	// streams the same bytes.
	jc2 := smallJob(6)
	body2, _ := json.Marshal(jc2)
	resp2, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body2))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp2.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	job2, ok := m.Get(st.ID)
	if !ok {
		t.Fatalf("submitted job %q not in manager", st.ID)
	}
	waitDone(t, job2)
	if resp, body := get("/jobs/" + st.ID + "/result"); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"event":"result"`) {
		t.Fatalf("result stream: %d %q", resp.StatusCode, body)
	}

	// Cancel on a terminal job is a no-op that reports current status.
	cresp, err := http.Post(srv.URL+"/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel done job: %d", cresp.StatusCode)
	}

	for _, bad := range []string{`{`, `{"scenario":"nope"}`, `{"bogus_field":1}`} {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestJobBodyCap pins the POST /jobs body limit: the BenchJobs workload
// is admitted, and a body past maxJobBodyBytes is refused with 413 before
// it is buffered in full.
func TestJobBodyCap(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(Config{PoolWorkers: 2, Obs: reg})
	defer m.Close()
	srv := httptest.NewServer(Handler(m, reg))
	defer srv.Close()
	post := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	for _, jc := range BenchJobs(4) {
		body, err := json.Marshal(jc)
		if err != nil {
			t.Fatal(err)
		}
		if code := post(body); code != http.StatusAccepted {
			t.Fatalf("BenchJobs body %s: status %d, want 202", body, code)
		}
	}
	huge := []byte(`{"scenario":"` + strings.Repeat("a", maxJobBodyBytes) + `"}`)
	if code := post(huge); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte body: status %d, want 413", len(huge), code)
	}
	if got := len(m.Jobs()); got != 4 {
		t.Fatalf("manager holds %d jobs, want only the 4 admitted", got)
	}
}

func TestParseFloor(t *testing.T) {
	w, h, err := ParseFloor("30x50")
	if err != nil || w != 30 || h != 50 {
		t.Fatalf("30x50 → %v %v %v", w, h, err)
	}
	if _, _, err := ParseFloor("30"); err == nil {
		t.Fatal("want error for missing height")
	}
	if _, _, err := ParseFloor("0x5"); err == nil {
		t.Fatal("want error for zero width")
	}
}

// TestDoubleDeckerJob pins the phase/baseline job plumbing: a
// doubledecker job resolves to a phase-aware fleet config, runs to
// completion, and its result records the baseline; the -phase knob maps
// to a drift-capped PhaseConfig.
func TestDoubleDeckerJob(t *testing.T) {
	jc := smallJob(3)
	jc.Baseline = string(fleet.BaselineDoubleDecker)
	fcfg, err := jc.FleetConfig()
	if err != nil {
		t.Fatal(err)
	}
	if fcfg.Baseline != fleet.BaselineDoubleDecker {
		t.Fatalf("baseline not mapped: %q", fcfg.Baseline)
	}
	m := NewManager(Config{Obs: obs.NewRegistry()})
	defer m.Close()
	j, err := m.Submit(jc)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	res := j.Result()
	if res == nil {
		t.Fatalf("job failed: %v", j.Err())
	}
	if !res.PhaseAware || res.Baseline != string(fleet.BaselineDoubleDecker) {
		t.Fatalf("result not marked: phase %v baseline %q", res.PhaseAware, res.Baseline)
	}

	pj := smallJob(4)
	pj.PhaseMaxDriftHz = 75
	pcfg, err := pj.FleetConfig()
	if err != nil {
		t.Fatal(err)
	}
	if pcfg.Phase == nil || pcfg.Phase.MaxDriftHz != 75 {
		t.Fatalf("phase knob not mapped: %+v", pcfg.Phase)
	}
}
