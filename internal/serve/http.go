package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"multiscatter/internal/obs"
	"multiscatter/internal/obs/ptrace"
)

// maxJobBodyBytes caps a POST /jobs body. A JobConfig is a few hundred
// bytes of JSON, so 64 KiB leaves ample room while keeping an untrusted
// client from making the decoder buffer an unbounded body; larger bodies
// get 413.
const maxJobBodyBytes = 64 << 10

// Handler returns the service's HTTP API for m:
//
//	POST /jobs             submit a JobConfig (JSON body of at most
//	                       maxJobBodyBytes, else 413) → 202 + status;
//	                       ?wait=1 streams NDJSON events until the job
//	                       finishes, ending with the result line; a
//	                       repeat of a retained done config is done at
//	                       once (see Manager.Submit)
//	GET  /jobs             the retained jobs' statuses, submission order
//	GET  /jobs/{id}        one job's status (404 once evicted)
//	GET  /jobs/{id}/result NDJSON stream: status lines, then one
//	                       {"event":"result","result":{...}} line whose
//	                       result bytes equal a standalone msfleet run
//	POST /jobs/{id}/cancel cancel a pending or running job
//	GET  /jobs/{id}/metrics the job's own obs snapshot (JSON)
//	GET  /jobs/{id}/trace  the job's flight-recorder stream (JSONL)
//	GET  /jobs/{id}/spans  the job's span timeline; ?format=json
//	                       (default), jsonl, or chrome (Perfetto)
//	GET  /metrics          the service's own registry snapshot (JSON)
//	GET  /metrics/jobs     merged per-job engine metrics across all jobs
//	GET  /metrics/prom     Prometheus text exposition: service registry
//	                       + merged job counters + runtime health gauges
//	GET  /metrics/history  sampled time series (counters, gauges,
//	                       histogram quantiles) from the telemetry ring
//	GET  /healthz          structured health: queue depth vs limits,
//	                       lifecycle tallies, drain state, overload time
//	/obs/...               the standard obs endpoint (metrics, pprof,
//	                       trace/last) over the server's registry
//
// Every NDJSON line is flushed as written, so clients see state
// transitions live.
func Handler(m *Manager, reg *obs.Registry) http.Handler {
	if reg == nil {
		reg = obs.Default()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var jc JobConfig
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&jc); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				http.Error(w, fmt.Sprintf("job config exceeds %d bytes", tooBig.Limit),
					http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, "bad job config: "+err.Error(), http.StatusBadRequest)
			return
		}
		// Read before Submit, so that nothing runs between a reused
		// job's root span and its stream span.
		wait := r.URL.Query().Get("wait") == "1"
		job, err := m.Submit(jc)
		if err != nil {
			http.Error(w, err.Error(), submitStatus(err))
			return
		}
		if wait {
			streamJob(m, w, r, job)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusAccepted)
		writeJSON(w, job.Status())
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, _ *http.Request) {
		jobs := m.Jobs()
		statuses := make([]JobStatus, len(jobs))
		for i, j := range jobs {
			statuses[i] = j.Status()
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		writeJSON(w, statuses)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Get(r.PathValue("id"))
		if !ok {
			http.Error(w, ErrNotFound.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		writeJSON(w, job.Status())
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Get(r.PathValue("id"))
		if !ok {
			http.Error(w, ErrNotFound.Error(), http.StatusNotFound)
			return
		}
		streamJob(m, w, r, job)
	})
	mux.HandleFunc("POST /jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		// Look the job up once: a terminal job may be evicted at any
		// moment, so a second lookup after cancelling could miss.
		job, ok := m.Get(r.PathValue("id"))
		if !ok {
			http.Error(w, ErrNotFound.Error(), http.StatusNotFound)
			return
		}
		job.Cancel()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		writeJSON(w, job.Status())
	})
	mux.HandleFunc("GET /jobs/{id}/metrics", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Get(r.PathValue("id"))
		if !ok {
			http.Error(w, ErrNotFound.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := job.Metrics().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Get(r.PathValue("id"))
		if !ok {
			http.Error(w, ErrNotFound.Error(), http.StatusNotFound)
			return
		}
		evs := job.Trace()
		if len(evs) == 0 {
			http.Error(w, "no trace captured (submit with trace_sample)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		if err := ptrace.WriteJSONL(w, evs); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /jobs/{id}/spans", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Get(r.PathValue("id"))
		if !ok {
			http.Error(w, ErrNotFound.Error(), http.StatusNotFound)
			return
		}
		spans := job.Spans()
		switch r.URL.Query().Get("format") {
		case "", "json":
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			writeJSON(w, spans)
		case "jsonl":
			w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
			if err := obs.WriteSpanJSONL(w, spans); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		case "chrome", "perfetto":
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			if err := obs.WriteSpanChrome(w, job.ID, spans); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		default:
			http.Error(w, "unknown format (want json, jsonl, or chrome)", http.StatusBadRequest)
		}
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := m.Registry().Snapshot().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /metrics/jobs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := m.MergedJobMetrics().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /metrics/prom", func(w http.ResponseWriter, _ *http.Request) {
		// Scrape-time collection: refresh the runtime gauges, then fold
		// the merged per-job engine counters into the service snapshot so
		// one scrape sees the whole process.
		obs.CollectRuntime(m.Registry())
		snap := m.Registry().Snapshot().Merge(m.MergedJobMetrics())
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := snap.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /metrics/history", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		writeJSON(w, m.History())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		writeJSON(w, m.Health())
	})
	mux.Handle("/obs/", http.StripPrefix("/obs", obs.Handler(reg)))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "msserve endpoints:")
		for _, p := range []string{
			"POST /jobs[?wait=1]", "GET /jobs", "GET /jobs/{id}",
			"GET /jobs/{id}/result", "POST /jobs/{id}/cancel",
			"GET /jobs/{id}/metrics", "GET /jobs/{id}/trace",
			"GET /jobs/{id}/spans[?format=json|jsonl|chrome]",
			"GET /metrics", "GET /metrics/jobs", "GET /metrics/prom",
			"GET /metrics/history", "GET /healthz", "/obs/",
		} {
			fmt.Fprintln(w, "  "+p)
		}
	})
	return mux
}

// submitStatus maps Submit errors to HTTP status codes.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// jobEvent is one NDJSON line of a result stream.
type jobEvent struct {
	Event string `json:"event"`
	ID    string `json:"id"`
	State State  `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// Result carries the job's fleet result on the final "result" line,
	// byte-identical to json.Marshal of the standalone run.
	Result json.RawMessage `json:"result,omitempty"`
}

// streamJob writes the job's progress as NDJSON until it terminates or
// the client goes away: a "state" line up front, then the terminal
// "result"/"failed"/"cancelled" line. Each stream rides a "streaming"
// span on the job's timeline and lands in the stream latency histogram.
func streamJob(m *Manager, w http.ResponseWriter, r *http.Request, job *Job) {
	sp := job.StreamSpan()
	t0 := time.Now()
	defer func() {
		m.lat.stream.Observe(float64(time.Since(t0)) / 1e6)
		sp.End()
	}()
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	flusher, _ := w.(http.Flusher)
	emit := func(ev jobEvent) {
		blob, err := json.Marshal(ev)
		if err != nil {
			return
		}
		w.Write(append(blob, '\n'))
		if flusher != nil {
			flusher.Flush()
		}
	}
	if st := job.State(); !st.Terminal() {
		emit(jobEvent{Event: "state", ID: job.ID, State: st})
		select {
		case <-job.Done():
		case <-r.Context().Done():
			return
		}
	}
	st := job.State()
	switch st {
	case StateDone:
		emit(jobEvent{Event: "result", ID: job.ID, State: st, Result: job.ResultJSON()})
	default:
		emit(jobEvent{Event: "error", ID: job.ID, State: st, Error: job.Err()})
	}
}

// writeJSON writes v as indented JSON, ignoring the unrecoverable
// mid-stream error case (the status structs always marshal).
func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
