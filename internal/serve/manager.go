package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"multiscatter/internal/excite"
	"multiscatter/internal/fleet"
	"multiscatter/internal/obs"
	"multiscatter/internal/obs/ptrace"
)

// State is a job's lifecycle state.
type State string

const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Admission and lookup errors. The HTTP layer maps them to status
// codes: ErrRejected → 400, ErrBusy → 429, ErrDraining → 503,
// ErrNotFound → 404.
var (
	ErrRejected = errors.New("serve: job rejected")
	ErrBusy     = errors.New("serve: job queue full")
	ErrDraining = errors.New("serve: draining, not accepting jobs")
	ErrNotFound = errors.New("serve: no such job")
)

// Limits is the manager's admission-control envelope. Zero fields take
// the defaults below.
type Limits struct {
	// MaxRunning is the number of jobs simulated concurrently (each on
	// the shared pool). Default 2×GOMAXPROCS.
	MaxRunning int
	// MaxQueue is the number of pending jobs admitted beyond the
	// running ones; a full queue rejects with ErrBusy. Default 1024.
	MaxQueue int
	// MaxTags caps Config.Tags, and Config.Receivers, per job. Default
	// 10000.
	MaxTags int
	// MaxSpan caps the simulated span per job, and the throughput bucket
	// length. Default 10 minutes.
	MaxSpan time.Duration
	// MaxPackets is the default per-job packet budget (fleet.MaxEvents)
	// when the job does not set its own; a job asking for more than
	// this is rejected. Default 4,000,000.
	MaxPackets int
}

// maxRetained caps the terminal jobs a Manager keeps for lookup, listing
// and result reuse, the same as MaxQueue's default. Past it the job that
// finished first is evicted and its ID answers ErrNotFound; pending and
// running jobs are never evicted.
const maxRetained = 1024

func (l Limits) withDefaults() Limits {
	if l.MaxRunning <= 0 {
		l.MaxRunning = 2 * runtime.GOMAXPROCS(0)
	}
	if l.MaxQueue <= 0 {
		l.MaxQueue = 1024
	}
	if l.MaxTags <= 0 {
		l.MaxTags = 10000
	}
	if l.MaxSpan <= 0 {
		l.MaxSpan = 10 * time.Minute
	}
	if l.MaxPackets <= 0 {
		l.MaxPackets = 4_000_000
	}
	return l
}

// Config sizes a Manager.
type Config struct {
	// PoolWorkers sizes the shared fleet.Pool every job's shards run
	// on (default GOMAXPROCS). The pool is the service's degree of
	// parallelism; MaxRunning only bounds how many jobs contend for it.
	PoolWorkers int
	// Limits is the admission envelope.
	Limits Limits
	// Obs receives the service's own metrics (serve.* counters, job
	// gauges); nil defaults to obs.Default(). Per-job engine metrics go
	// to per-job registries, snapshotted on the Job and merged into
	// MergedJobMetrics.
	Obs *obs.Registry

	// testGate, when non-nil, makes every runner block on it after
	// marking its job running and before entering the engine, until it
	// is closed or the job's context is cancelled — tests use it to pin
	// jobs deterministically in flight. Unexported: only package tests
	// can set it.
	testGate chan struct{}
	// testRetained, when positive, replaces maxRetained, so that tests
	// can watch eviction with a handful of jobs.
	testRetained int
}

// Job is one deployment job owned by a Manager. All exported methods
// are safe for concurrent use.
type Job struct {
	// ID is the manager-assigned identifier ("job-<n>").
	ID string
	// Config is the normalized job config.
	Config JobConfig

	mu        sync.Mutex
	state     State
	err       string
	result    *fleet.Result
	resultRaw []byte // compact JSON of result, for streaming
	metrics   obs.Snapshot
	trace     []ptrace.Event
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc

	// spans is the job's telemetry timeline: a root "job" span opened at
	// admission with "queued"/"running"/"streaming" children. Immutable
	// after Submit; the recorder has its own lock.
	spans      *obs.SpanRecorder
	spanRoot   *obs.Span
	spanQueued *obs.Span
	spanRun    *obs.Span

	// reusedFrom is the ID of the job whose run produced this job's
	// result when Submit served it from the reuse index ("" for a job
	// that ran). Immutable after Submit.
	reusedFrom string

	// mgr is the owning manager, and seq the job's submission number
	// ("job-<seq>"), which orders Manager.Jobs.
	mgr *Manager
	seq int

	done chan struct{}
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the fleet result (nil unless state is done). It is
// immutable once the job is done and may be shared with other jobs of
// the same config, so callers must only read it.
func (j *Job) Result() *fleet.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// ResultJSON returns the result as compact JSON bytes (nil unless
// done). The bytes equal json.Marshal of a standalone fleet.Run with
// the same (seed, config) — the service's reproducibility contract.
// Like Result they are immutable and may be shared: read only.
func (j *Job) ResultJSON() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resultRaw
}

// Metrics returns the job's own obs snapshot (zero until terminal).
func (j *Job) Metrics() obs.Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.metrics
}

// Trace returns the job's drained flight-recorder events (nil unless
// the job requested TraceSample and finished).
func (j *Job) Trace() []ptrace.Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// Spans returns the job's telemetry timeline so far: the root "job"
// span plus "queued"/"running"/"streaming" children. Spans carry
// wall-clock times and are operator telemetry, never part of the
// deterministic result.
func (j *Job) Spans() []obs.SpanSnapshot { return j.spans.Snapshot() }

// StreamSpan opens a "streaming" child on the job's timeline; the
// caller Ends it when the result stream closes.
func (j *Job) StreamSpan() *obs.Span { return j.spans.Start("streaming", j.spanRoot) }

// Err returns the failure/cancellation message ("" while healthy).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// JobStatus is the API view of a job. Times are RFC 3339 strings
// (empty when the state has not been reached).
type JobStatus struct {
	ID          string    `json:"id"`
	State       State     `json:"state"`
	Config      JobConfig `json:"config"`
	SubmittedAt string    `json:"submitted_at"`
	StartedAt   string    `json:"started_at,omitempty"`
	FinishedAt  string    `json:"finished_at,omitempty"`
	// ReusedFrom names the job whose run produced this job's result when
	// the job was served from an earlier identical one without running.
	ReusedFrom string `json:"reused_from,omitempty"`
	// WallMS is the job's run time so far (running) or total (terminal).
	WallMS float64 `json:"wall_ms,omitempty"`
	Error  string  `json:"error,omitempty"`
	// Events and FleetTagKbps summarize a done job's result.
	Events       int     `json:"events,omitempty"`
	FleetTagKbps float64 `json:"fleet_tag_kbps,omitempty"`
}

// Status snapshots the job for listings.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.ID,
		State:       j.state,
		Config:      j.Config,
		SubmittedAt: j.submitted.Format(time.RFC3339Nano),
		ReusedFrom:  j.reusedFrom,
		Error:       j.err,
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.Format(time.RFC3339Nano)
	}
	switch {
	case j.state == StateRunning:
		st.WallMS = float64(time.Since(j.started)) / 1e6
	case !j.finished.IsZero() && !j.started.IsZero():
		st.WallMS = float64(j.finished.Sub(j.started)) / 1e6
	}
	if j.result != nil {
		st.Events = j.result.Events
		st.FleetTagKbps = j.result.FleetTagKbps
	}
	return st
}

// start moves pending → running, counts the job running, and installs
// the cancel func; false when the job was cancelled while queued.
func (j *Job) start(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StatePending {
		return false
	}
	j.state = StateRunning
	j.mgr.running.Set(float64(j.mgr.runningN.Add(1)))
	j.started = time.Now()
	j.cancel = cancel
	j.spanQueued.End()
	j.spanRun = j.spans.Start("running", j.spanRoot)
	return true
}

// closeSpansLocked finishes the job's timeline at a terminal state.
// Callers hold j.mu; the recorder's own lock never acquires j.mu.
func (j *Job) closeSpansLocked() {
	j.spanQueued.End()
	j.spanRun.End()
	j.spanRoot.SetAttr("state", string(j.state))
	if j.err != "" {
		j.spanRoot.SetAttr("error", j.err)
	}
	j.spanRoot.End()
}

// Cancel requests cancellation: a pending job terminates immediately,
// a running one has its context cancelled and terminates when the
// engine unwinds. Terminal jobs are left untouched.
func (j *Job) Cancel() {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	if j.state == StatePending {
		j.state = StateCancelled
		j.err = "cancelled before start"
		j.finished = time.Now()
		j.closeSpansLocked()
		j.mu.Unlock()
		j.mgr.retire(j, StateCancelled, false)
		close(j.done)
		return
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Manager owns the job queue, the shared fleet pool, and the runner
// goroutines. Create with NewManager; Close releases the workers.
type Manager struct {
	limits Limits
	pool   *fleet.Pool
	obs    *obs.Registry

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *Job
	runnerWG   sync.WaitGroup
	drainOnce  sync.Once

	mu   sync.Mutex
	jobs map[string]*Job // retained jobs by ID
	// finished holds the retained terminal jobs in the order they
	// finished, oldest first: the eviction queue, at most retained long.
	finished []*Job
	retained int // maxRetained, or Config.testRetained
	// results is the reuse index: for each normalized config, the newest
	// retained done job whose result a repeat may share.
	results  map[JobConfig]*Job
	seq      int
	draining bool
	// inFlight counts admitted jobs that are not terminal yet, so that
	// Health need not visit them.
	inFlight int
	// busySince/busyTotal track time spent in overload: busySince is set
	// on the first ErrBusy rejection and cleared (accumulating into
	// busyTotal) by the next successful enqueue. Guarded by mu.
	busySince time.Time
	busyTotal time.Duration

	mergedMu sync.Mutex
	merged   obs.Snapshot

	// startGate mirrors Config.testGate; see there.
	startGate chan struct{}

	// runningN counts jobs in the running state: Job.start adds one, and
	// retire takes it off under mu.
	runningN atomic.Int64
	running  *obs.Gauge
	queued   *obs.Gauge

	created time.Time

	// lat holds the SLO latency histograms, resolved once at
	// construction (the hot-path rule: never look up by name per job).
	// All observe milliseconds on obs.LatencyBucketsMS bounds.
	lat struct {
		queueWait *obs.Histogram // admission → runner pickup
		run       *obs.Histogram // runner pickup → terminal
		stream    *obs.Histogram // result-stream request → close
		e2e       *obs.Histogram // admission → terminal
	}
}

// NewManager starts the pool and MaxRunning runner goroutines.
func NewManager(cfg Config) *Manager {
	if cfg.Obs == nil {
		cfg.Obs = obs.Default()
	}
	lim := cfg.Limits.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		limits:     lim,
		pool:       fleet.NewPool(cfg.PoolWorkers),
		obs:        cfg.Obs,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *Job, lim.MaxQueue),
		jobs:       map[string]*Job{},
		retained:   maxRetained,
		results:    map[JobConfig]*Job{},
		merged:     obs.Snapshot{Counters: map[string]int64{}},
		startGate:  cfg.testGate,
		running:    cfg.Obs.Gauge("serve.jobs_running"),
		queued:     cfg.Obs.Gauge("serve.jobs_queued"),
		created:    time.Now(),
	}
	if cfg.testRetained > 0 {
		m.retained = cfg.testRetained
	}
	m.lat.queueWait = cfg.Obs.Histogram("serve.latency.queue_wait_ms", obs.LatencyBucketsMS())
	m.lat.run = cfg.Obs.Histogram("serve.latency.run_ms", obs.LatencyBucketsMS())
	m.lat.stream = cfg.Obs.Histogram("serve.latency.stream_ms", obs.LatencyBucketsMS())
	m.lat.e2e = cfg.Obs.Histogram("serve.latency.e2e_ms", obs.LatencyBucketsMS())
	m.obs.Gauge("serve.pool_workers").Set(float64(m.pool.Size()))
	m.obs.Gauge("serve.queue_capacity").Set(float64(lim.MaxQueue))
	m.runnerWG.Add(lim.MaxRunning)
	for i := 0; i < lim.MaxRunning; i++ {
		go m.runner()
	}
	return m
}

// Limits returns the effective admission envelope.
func (m *Manager) Limits() Limits { return m.limits }

// Pool returns the shared fleet pool (for benchmarks and tests).
func (m *Manager) Pool() *fleet.Pool { return m.pool }

// Submit admits a job: validates it against the limits, assigns an ID,
// and queues it. The returned Job is live immediately. A config equal
// to that of a retained done job is not queued: the new job is done on
// return and shares that job's result (see reuseLocked).
func (m *Manager) Submit(jc JobConfig) (*Job, error) {
	jc.Normalize()
	if err := m.admit(jc); err != nil {
		m.obs.Counter("serve.jobs_rejected").Inc()
		return nil, err
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.obs.Counter("serve.jobs_rejected").Inc()
		return nil, ErrDraining
	}
	if src := m.results[jc]; src != nil {
		job := m.reuseLocked(jc, src)
		m.mu.Unlock()
		// The root span ends after the unlock, which can stall when it
		// hands m.mu to a waiter, so that the job's timeline covers all of
		// its admission; Done closes once the timeline is complete.
		job.spanRoot.End()
		close(job.done)
		return job, nil
	}
	job := m.newJobLocked(jc, StatePending)
	job.spanQueued = job.spans.Start("queued", job.spanRoot)
	select {
	case m.queue <- job:
		if !m.busySince.IsZero() {
			m.busyTotal += time.Since(m.busySince)
			m.busySince = time.Time{}
		}
	default:
		m.seq--
		if m.busySince.IsZero() {
			m.busySince = time.Now()
		}
		m.mu.Unlock()
		m.obs.Counter("serve.jobs_rejected").Inc()
		m.obs.Counter("serve.jobs_busy_rejected").Inc()
		return nil, ErrBusy
	}
	m.jobs[job.ID] = job
	m.inFlight++
	m.mu.Unlock()
	m.obs.Counter("serve.jobs_submitted").Inc()
	m.queued.Set(float64(len(m.queue)))
	return job, nil
}

// reuseLocked creates a job for a repeat of src's config that is done
// at admission: it shares src's result and result bytes, never enters
// the queue, and its timeline is a root "job" span with a "reused"
// attribute and no "queued" or "running" child; Submit ends that span
// and then closes Done. Its metrics snapshot stays empty, since it
// simulated nothing. Callers hold m.mu, so the job's counters are
// recorded before anyone else can see it.
func (m *Manager) reuseLocked(jc JobConfig, src *Job) *Job {
	// A done job's result fields are immutable, and finishJob published
	// src to the index under m.mu after setting them.
	job := m.newJobLocked(jc, StateDone)
	job.finished = job.submitted
	job.result, job.resultRaw = src.result, src.resultRaw
	job.reusedFrom = src.reusedFrom
	if job.reusedFrom == "" {
		job.reusedFrom = src.ID
	}
	m.obs.Counter("serve.jobs_submitted").Inc()
	m.obs.Counter("serve.jobs_reused").Inc()
	m.lat.e2e.Observe(0)
	job.spanRoot.SetAttr("reused", job.reusedFrom)
	job.spanRoot.SetAttr("state", string(StateDone))
	m.jobs[job.ID] = job
	m.finishedLocked(job, StateDone)
	return job
}

// newJobLocked assigns the next job ID and opens the job's root span.
// Callers hold m.mu.
func (m *Manager) newJobLocked(jc JobConfig, state State) *Job {
	m.seq++
	job := &Job{
		ID:        fmt.Sprintf("job-%d", m.seq),
		seq:       m.seq,
		Config:    jc,
		state:     state,
		submitted: time.Now(),
		done:      make(chan struct{}),
		spans:     obs.NewSpanRecorder(),
		mgr:       m,
	}
	job.spanRoot = job.spans.Start("job", nil)
	job.spanRoot.SetAttr("id", job.ID)
	job.spanRoot.SetAttr("scenario", jc.Scenario)
	return job
}

// admit checks a normalized config against the limits.
func (m *Manager) admit(jc JobConfig) error {
	if _, err := excite.FindScenario(jc.Scenario); err != nil {
		return fmt.Errorf("%w: %v", ErrRejected, err)
	}
	if jc.Tags > m.limits.MaxTags {
		return fmt.Errorf("%w: %d tags exceeds limit %d", ErrRejected, jc.Tags, m.limits.MaxTags)
	}
	// Milliseconds are compared before any conversion to a Duration,
	// which would wrap for huge values and slip past the check.
	maxMS := m.limits.MaxSpan.Milliseconds()
	if int64(jc.SpanMS) > maxMS {
		return fmt.Errorf("%w: span %d ms exceeds limit %v", ErrRejected, jc.SpanMS, m.limits.MaxSpan)
	}
	if int64(jc.BucketMS) > maxMS {
		return fmt.Errorf("%w: bucket %d ms exceeds the span limit %v", ErrRejected, jc.BucketMS, m.limits.MaxSpan)
	}
	if jc.Receivers > m.limits.MaxTags {
		return fmt.Errorf("%w: %d receivers exceeds limit %d", ErrRejected, jc.Receivers, m.limits.MaxTags)
	}
	if jc.MaxPackets > m.limits.MaxPackets {
		return fmt.Errorf("%w: packet budget %d exceeds limit %d", ErrRejected, jc.MaxPackets, m.limits.MaxPackets)
	}
	switch fleet.BaselineSystem(jc.Baseline) {
	case fleet.BaselineMultiscatter, fleet.BaselineDoubleDecker:
	default:
		return fmt.Errorf("%w: unknown baseline %q", ErrRejected, jc.Baseline)
	}
	return nil
}

// Get returns a retained job by ID; an evicted or unknown ID reports
// false.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns the retained jobs in submission order: every pending and
// running job, and the last maxRetained jobs to finish.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	m.mu.Unlock()
	slices.SortFunc(out, func(a, b *Job) int { return cmp.Compare(a.seq, b.seq) })
	return out
}

// retire books the terminal transition of an admitted job: it is no
// longer in flight (nor running, if it started), and finishedLocked
// takes it from there. Callers hold no job lock.
func (m *Manager) retire(job *Job, state State, started bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inFlight--
	if started {
		m.running.Set(float64(m.runningN.Add(-1)))
	}
	m.finishedLocked(job, state)
}

// finishedLocked counts a job that has just become terminal in state,
// makes it the reuse source for its config if it is done, and evicts the
// oldest terminal jobs past the retention limit: an evicted job leaves
// the ID index, and the reuse index if it is still the entry for its
// config. Callers hold m.mu.
func (m *Manager) finishedLocked(job *Job, state State) {
	switch state {
	case StateDone:
		m.obs.Counter("serve.jobs_done").Inc()
		// A traced job asked for a fresh flight recording, so it is never
		// served again. A config with a NaN field is not equal to itself:
		// as a map key it could never be found or deleted.
		if jc := job.Config; jc.TraceSample == 0 && jc == jc {
			m.results[jc] = job
		}
	case StateFailed:
		m.obs.Counter("serve.jobs_failed").Inc()
	default:
		m.obs.Counter("serve.jobs_cancelled").Inc()
	}
	m.finished = append(m.finished, job)
	for len(m.finished) > m.retained {
		old := m.finished[0]
		delete(m.jobs, old.ID)
		if m.results[old.Config] == old {
			delete(m.results, old.Config)
		}
		m.finished[0] = nil
		m.finished = m.finished[1:]
	}
}

// MergedJobMetrics returns the accumulated merge of every finished
// job's per-job obs snapshot — fleet-engine counters summed across the
// service's lifetime.
func (m *Manager) MergedJobMetrics() obs.Snapshot {
	m.mergedMu.Lock()
	defer m.mergedMu.Unlock()
	return m.merged
}

// Registry returns the manager's own metrics registry (serve.*
// counters, gauges, latency histograms).
func (m *Manager) Registry() *obs.Registry { return m.obs }

// Health is the structured /healthz payload: admission pressure
// against the configured limits, lifecycle tallies, and overload
// history. Status is "ok" or "draining"; Overloaded is true while the
// queue is rejecting with ErrBusy (set on the first busy rejection,
// cleared by the next successful enqueue), and BusyMS accumulates
// total time spent in that state. Jobs is the number of retained jobs;
// JobsPending and JobsRunning are the jobs in those states now, and
// JobsDone, JobsFailed and JobsCancelled read the serve.jobs_done,
// serve.jobs_failed and serve.jobs_cancelled counters: every job that
// reached that state, evicted or not.
type Health struct {
	Status        string  `json:"status"`
	Draining      bool    `json:"draining"`
	UptimeMS      float64 `json:"uptime_ms"`
	Jobs          int     `json:"jobs"`
	JobsPending   int     `json:"jobs_pending"`
	JobsRunning   int     `json:"jobs_running"`
	JobsDone      int     `json:"jobs_done"`
	JobsFailed    int     `json:"jobs_failed"`
	JobsCancelled int     `json:"jobs_cancelled"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	MaxRunning    int     `json:"max_running"`
	PoolWorkers   int     `json:"pool_workers"`
	Overloaded    bool    `json:"overloaded"`
	BusyMS        float64 `json:"busy_ms"`
	Goroutines    int     `json:"goroutines"`
}

// Health snapshots the manager's runtime health from its counters,
// without visiting any job. The terminal counters move under m.mu
// (finishedLocked), so each job is either in flight or tallied.
func (m *Manager) Health() Health {
	m.mu.Lock()
	running := int(m.runningN.Load())
	h := Health{
		Status:        "ok",
		Draining:      m.draining,
		UptimeMS:      float64(time.Since(m.created)) / 1e6,
		Jobs:          len(m.jobs),
		JobsPending:   m.inFlight - running,
		JobsRunning:   running,
		JobsDone:      int(m.obs.Counter("serve.jobs_done").Load()),
		JobsFailed:    int(m.obs.Counter("serve.jobs_failed").Load()),
		JobsCancelled: int(m.obs.Counter("serve.jobs_cancelled").Load()),
		QueueDepth:    len(m.queue),
		QueueCapacity: m.limits.MaxQueue,
		MaxRunning:    m.limits.MaxRunning,
		PoolWorkers:   m.pool.Size(),
		Overloaded:    !m.busySince.IsZero(),
		BusyMS:        float64(m.busyTotal) / 1e6,
	}
	if !m.busySince.IsZero() {
		h.BusyMS += float64(time.Since(m.busySince)) / 1e6
	}
	m.mu.Unlock()
	if h.Draining {
		h.Status = "draining"
	}
	h.Goroutines = runtime.NumGoroutine()
	return h
}

// runner executes queued jobs until the queue closes.
func (m *Manager) runner() {
	defer m.runnerWG.Done()
	for job := range m.queue {
		m.runJob(job)
	}
}

// runJob executes one job end to end: per-job registry and optional
// flight recorder in, shared pool under, result/metrics/trace out.
func (m *Manager) runJob(job *Job) {
	m.queued.Set(float64(len(m.queue)))
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()
	if !job.start(cancel) {
		return // cancelled while queued
	}
	m.lat.queueWait.Observe(float64(job.started.Sub(job.submitted)) / 1e6)
	if m.startGate != nil {
		select {
		case <-m.startGate:
		case <-ctx.Done():
		}
	}
	t0 := time.Now()
	defer m.obs.Stage("serve.job").ObserveSince(t0)

	runCtx := ctx
	if job.Config.WallBudgetMS > 0 {
		var tcancel context.CancelFunc
		runCtx, tcancel = context.WithTimeout(ctx, time.Duration(job.Config.WallBudgetMS)*time.Millisecond)
		defer tcancel()
	}

	fleetCfg, err := job.Config.FleetConfig()
	if err != nil {
		m.finishJob(job, nil, nil, obs.Snapshot{}, nil, err)
		return
	}
	jobReg := obs.NewRegistry()
	fleetCfg.Obs = jobReg
	fleetCfg.Pool = m.pool
	if fleetCfg.MaxEvents == 0 {
		fleetCfg.MaxEvents = m.limits.MaxPackets
	}
	var rec *ptrace.Recorder
	if job.Config.TraceSample > 0 {
		rec = ptrace.New(ptrace.Config{Sample: job.Config.TraceSample})
		fleetCfg.Trace = rec
	}

	res, err := fleet.RunContext(runCtx, fleetCfg)
	var raw []byte
	if err == nil {
		raw, err = json.Marshal(res)
	}
	var evs []ptrace.Event
	if err == nil && rec != nil {
		evs = rec.Drain()
	}
	m.finishJob(job, res, raw, jobReg.Snapshot(), evs, err)
}

// finishJob records the outcome on the job, folds its metrics into the
// merged snapshot, bumps the service counters, and retires the job.
func (m *Manager) finishJob(job *Job, res *fleet.Result, raw []byte, snap obs.Snapshot, evs []ptrace.Event, err error) {
	job.mu.Lock()
	job.finished = time.Now()
	job.metrics = snap
	job.trace = evs
	switch {
	case err == nil:
		job.state = StateDone
		job.result = res
		job.resultRaw = raw
	case errors.Is(err, context.Canceled):
		job.state = StateCancelled
		job.err = err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		job.state = StateFailed
		job.err = "wall-clock budget exceeded: " + err.Error()
	default:
		job.state = StateFailed
		job.err = err.Error()
	}
	job.closeSpansLocked()
	state := job.state
	started, submitted, finished := job.started, job.submitted, job.finished
	job.mu.Unlock()
	// Wake waiters only once the job's service telemetry is recorded, so
	// a caller that sees the job terminal also sees its latencies and
	// counters.
	defer close(job.done)

	if !started.IsZero() {
		m.lat.run.Observe(float64(finished.Sub(started)) / 1e6)
	}
	m.lat.e2e.Observe(float64(finished.Sub(submitted)) / 1e6)

	m.mergedMu.Lock()
	m.merged = m.merged.Merge(snap)
	m.mergedMu.Unlock()

	if state == StateDone {
		m.obs.Counter("serve.packets_simulated").Add(int64(res.Events))
		var bits int64
		for _, pt := range res.PerProtocol {
			bits += int64(pt.TagBits)
		}
		m.obs.Counter("serve.tag_bits_delivered").Add(bits)
	}
	m.retire(job, state, true)
}

// Drain stops admission, lets queued and running jobs finish, and —
// if ctx expires first — cancels what is still in flight. It returns
// once every runner has exited. Safe to call more than once.
func (m *Manager) Drain(ctx context.Context) {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	m.drainOnce.Do(func() { close(m.queue) })
	done := make(chan struct{})
	go func() {
		m.runnerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		m.baseCancel()
		<-done
	}
}

// Close drains with immediate cancellation and releases the pool.
func (m *Manager) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.Drain(ctx)
	m.pool.Close()
}
