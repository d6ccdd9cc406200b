package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"multiscatter/internal/obs"
)

// resultLine reads a job's whole NDJSON result stream through the
// handler and returns the result bytes of its final line.
func resultLine(t *testing.T, h http.Handler, id string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+id+"/result", nil))
	lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
	var ev jobEvent
	if err := json.Unmarshal(lines[len(lines)-1], &ev); err != nil || ev.Event != "result" {
		t.Fatalf("%s result stream ends %q (%v)", id, lines[len(lines)-1], err)
	}
	return ev.Result
}

// TestStreamClientDisconnect drops a result stream's client mid-NDJSON,
// on a job pinned running and on a job reused at admission. The stream
// span must close, the job must still finish and serve its result to
// the next reader, and no goroutine may outlive the server.
func TestStreamClientDisconnect(t *testing.T) {
	for _, reused := range []bool{false, true} {
		name := map[bool]string{false: "simulated", true: "reused"}[reused]
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			gate := make(chan struct{})
			reg := obs.NewRegistry()
			m := NewManager(Config{
				PoolWorkers: 2,
				Limits:      Limits{MaxRunning: 1},
				Obs:         reg,
				testGate:    gate,
			})
			h := Handler(m, reg)
			srv := httptest.NewServer(h)

			var job *Job
			if reused {
				src, err := m.Submit(smallJob(1))
				if err != nil {
					t.Fatal(err)
				}
				close(gate)
				waitDone(t, src)
				if job, err = m.Submit(smallJob(1)); err != nil {
					t.Fatal(err)
				}
				requireReused(t, job, src)
			} else {
				var err error
				if job, err = m.Submit(smallJob(1)); err != nil {
					t.Fatal(err)
				}
				waitState(t, job, StateRunning)
			}

			ctx, cancel := context.WithCancel(context.Background())
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/jobs/"+job.ID+"/result", nil)
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			// Read part of the first line, then hang up.
			if _, err := io.ReadFull(bufio.NewReader(resp.Body), make([]byte, 16)); err != nil {
				t.Fatal(err)
			}
			cancel()
			resp.Body.Close()

			// The handler notices the hang-up (or finishes its one write)
			// and closes its stream span.
			deadline := time.Now().Add(10 * time.Second)
			for {
				s, ok := spanByName(job.Spans())["streaming"]
				if ok && s.EndUnixNS != 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("stream span still open after the client left: %+v", job.Spans())
				}
				time.Sleep(time.Millisecond)
			}

			if !reused {
				close(gate)
				waitDone(t, job)
			}
			if job.State() != StateDone {
				t.Fatalf("%s: state %s after the disconnect, err %q", job.ID, job.State(), job.Err())
			}
			if got := resultLine(t, h, job.ID); !bytes.Equal(got, standaloneJSON(t, job.Config)) {
				t.Fatal("result after the disconnect differs from a standalone run")
			}
			srv.Close()
			m.Close()
			requireGoroutinesAtMost(t, base)
		})
	}
}

// TestCancelRacesCompletion cancels jobs at staggered moments — while
// queued, while running, after finishing, and on reused jobs — and
// checks that each job ends in exactly one terminal state, that Done
// closes once, and that the health tallies and counters agree.
func TestCancelRacesCompletion(t *testing.T) {
	base := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	m := NewManager(Config{
		PoolWorkers: 2,
		Limits:      Limits{MaxRunning: 2},
		Obs:         reg,
	})
	const n = 90
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	for i := range jobs {
		// Every third job repeats an earlier config, so some cancels land
		// on jobs reused at admission.
		seed := int64(i + 1)
		if i%3 == 2 {
			seed = int64(i - 1)
		}
		// Two jobs in flight at a time, each cancelled twice after 0 to
		// 1.4 ms: about as long as a run takes, so cancels land before,
		// during and after it.
		if i >= 2 {
			waitDone(t, jobs[i-2])
		}
		j, err := m.Submit(smallJob(seed))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
		for range 2 {
			wg.Add(1)
			go func(delay time.Duration) {
				defer wg.Done()
				time.Sleep(delay)
				j.Cancel()
			}(time.Duration(i%8) * 200 * time.Microsecond)
		}
	}
	wg.Wait()
	done, cancelled := 0, 0
	for _, j := range jobs {
		waitDone(t, j)
		st := j.State()
		if root := spanByName(j.Spans())["job"]; root.Attrs["state"] != string(st) || root.EndUnixNS == 0 {
			t.Fatalf("%s: state %s but root span %+v", j.ID, st, root)
		}
		switch st {
		case StateDone:
			done++
			if j.ResultJSON() == nil {
				t.Fatalf("%s done without a result", j.ID)
			}
		case StateCancelled:
			cancelled++
			if j.Result() != nil {
				t.Fatalf("%s cancelled with a result", j.ID)
			}
		default:
			t.Fatalf("%s: state %s, err %q", j.ID, st, j.Err())
		}
	}
	t.Logf("%d done, %d cancelled", done, cancelled)
	h := m.Health()
	if h.JobsDone != done || h.JobsCancelled != cancelled || h.JobsPending+h.JobsRunning+h.JobsFailed != 0 || h.Jobs != n {
		t.Fatalf("health %+v, want %d done and %d cancelled", h, done, cancelled)
	}
	if d, c := reg.Counter("serve.jobs_done").Load(), reg.Counter("serve.jobs_cancelled").Load(); d != int64(done) || c != int64(cancelled) {
		t.Fatalf("counters: %d done, %d cancelled; want %d and %d", d, c, done, cancelled)
	}
	m.Close()
	requireGoroutinesAtMost(t, base)
}

// TestSaturationServesHits fills the running slot and the queue, then
// posts over HTTP: a new config gets 429, while a repeat of a done
// config is still served its result.
func TestSaturationServesHits(t *testing.T) {
	base := runtime.NumGoroutine()
	gate := make(chan struct{})
	reg := obs.NewRegistry()
	m := NewManager(Config{
		PoolWorkers: 2,
		Limits:      Limits{MaxRunning: 1, MaxQueue: 1},
		Obs:         reg,
		testGate:    gate,
	})
	srv := httptest.NewServer(Handler(m, reg))
	post := func(jc JobConfig, wait bool) (int, []byte) {
		t.Helper()
		body, _ := json.Marshal(jc)
		url := srv.URL + "/jobs"
		if wait {
			url += "?wait=1"
		}
		resp, err := srv.Client().Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	src, err := m.Submit(smallJob(1))
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{}
	waitDone(t, src)
	if code, _ := post(smallJob(2), false); code != http.StatusAccepted {
		t.Fatalf("first new config: %d, want 202", code)
	}
	pinned, _ := m.Get("job-2")
	waitState(t, pinned, StateRunning)
	if code, _ := post(smallJob(3), false); code != http.StatusAccepted {
		t.Fatalf("queued config: %d, want 202", code)
	}
	for range 3 {
		if code, _ := post(smallJob(4), false); code != http.StatusTooManyRequests {
			t.Fatalf("new config on a full queue: %d, want 429", code)
		}
		code, body := post(smallJob(1), true)
		if code != http.StatusOK {
			t.Fatalf("hit on a full queue: %d %s", code, body)
		}
		var ev jobEvent
		if err := json.Unmarshal(bytes.TrimSpace(body), &ev); err != nil || ev.Event != "result" {
			t.Fatalf("hit stream %q (%v), want one result line", body, err)
		}
		if !bytes.Equal(ev.Result, src.ResultJSON()) {
			t.Fatal("hit served different bytes from its source")
		}
	}
	if h := m.Health(); !h.Overloaded || h.QueueDepth != 1 || h.JobsDone != 4 {
		t.Fatalf("health while saturated: %+v", h)
	}
	if n := reg.Counter("serve.jobs_busy_rejected").Load(); n != 3 {
		t.Fatalf("serve.jobs_busy_rejected = %d, want 3", n)
	}
	close(gate)
	srv.Close()
	m.Close()
	requireGoroutinesAtMost(t, base)
}

// blockingWriter is a ResponseWriter whose Write of a result line blocks
// until release is closed, as a client that stops reading blocks the
// handler once the connection's buffers fill. blocked closes when that
// Write begins. Only the handler writes body; read it once the handler
// has returned.
type blockingWriter struct {
	header  http.Header
	blocked chan struct{}
	release chan struct{}
	once    sync.Once
	body    bytes.Buffer
}

func newBlockingWriter() *blockingWriter {
	return &blockingWriter{header: http.Header{}, blocked: make(chan struct{}), release: make(chan struct{})}
}

func (w *blockingWriter) Header() http.Header { return w.header }

func (w *blockingWriter) WriteHeader(int) {}

func (w *blockingWriter) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(`"event":"result"`)) {
		w.once.Do(func() { close(w.blocked) })
		<-w.release
	}
	return w.body.Write(p)
}

// TestSlowReader blocks a ?wait=1 request inside the Write of its result
// line, on a simulated and on a reused job. While it is blocked, jobs
// submitted meanwhile must finish on the one runner, Health must show
// nothing running, and Drain must return; releasing the writer must let
// the handler return with the job's result, and no goroutine may outlive
// the manager.
func TestSlowReader(t *testing.T) {
	for _, reused := range []bool{false, true} {
		name := map[bool]string{false: "simulated", true: "reused"}[reused]
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			reg := obs.NewRegistry()
			m := NewManager(Config{PoolWorkers: 2, Limits: Limits{MaxRunning: 1}, Obs: reg})
			h := Handler(m, reg)
			if reused {
				mustRun(t, m, smallJob(1))
			}

			w := newBlockingWriter()
			body, _ := json.Marshal(smallJob(1))
			handlerDone := make(chan struct{})
			go func() {
				defer close(handlerDone)
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/jobs?wait=1", bytes.NewReader(body)))
			}()
			select {
			case <-w.blocked:
			case <-time.After(10 * time.Second):
				t.Fatal("the result line was never written")
			}

			for seed := int64(2); seed <= 4; seed++ {
				mustRun(t, m, smallJob(seed))
			}
			if hl := m.Health(); hl.JobsRunning != 0 || hl.JobsPending != 0 {
				t.Fatalf("health with the reader blocked: %+v", hl)
			}
			drained := make(chan struct{})
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				m.Drain(ctx)
				close(drained)
			}()
			select {
			case <-drained:
			case <-time.After(10 * time.Second):
				t.Fatal("Drain did not return while a reader was blocked")
			}

			close(w.release)
			select {
			case <-handlerDone:
			case <-time.After(10 * time.Second):
				t.Fatal("the handler did not return after the writer was released")
			}
			lines := bytes.Split(bytes.TrimSpace(w.body.Bytes()), []byte("\n"))
			var ev jobEvent
			if err := json.Unmarshal(lines[len(lines)-1], &ev); err != nil || ev.Event != "result" {
				t.Fatalf("stream ends %q (%v)", lines[len(lines)-1], err)
			}
			if !bytes.Equal(ev.Result, standaloneJSON(t, smallJob(1))) {
				t.Fatal("the slow reader's result differs from a standalone run")
			}
			if n := reg.Counter("serve.jobs_reused").Load(); n != map[bool]int64{false: 0, true: 1}[reused] {
				t.Fatalf("serve.jobs_reused = %d", n)
			}
			m.Close()
			requireGoroutinesAtMost(t, base)
		})
	}
}
