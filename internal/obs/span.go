package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// SpanRecorder collects the spans of one traced operation tree — in the
// fleet service, one job's lifecycle (job → queued/running/streaming).
// It is the wall-clock sibling of the sim-time flight recorder
// (obs/ptrace): ptrace answers "what did the simulation decide about
// packet N", spans answer "where did the job's real time go". Span data
// therefore never feeds deterministic outputs; it is exported on its
// own endpoints and files, alongside — never inside — ptrace streams.
//
// A nil *SpanRecorder is valid everywhere and records nothing, so
// callers can gate tracing with a single pointer the way engines gate
// ptrace. All methods are safe for concurrent use.
type SpanRecorder struct {
	mu    sync.Mutex
	now   func() time.Time // test override; nil → time.Now
	spans []*Span
}

// NewSpanRecorder returns an empty recorder.
func NewSpanRecorder() *SpanRecorder { return &SpanRecorder{} }

// Span is one timed operation inside a SpanRecorder. Create with
// SpanRecorder.Start; a nil *Span is valid and ignores End/SetAttr.
type Span struct {
	rec    *SpanRecorder
	id     int64
	parent int64
	name   string
	start  time.Time
	end    time.Time
	attrs  []SpanAttr
}

// SpanAttr is one key=value annotation on a span.
type SpanAttr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// SpanSnapshot is a span as plain data. EndUnixNS is 0 while the span
// is still open, in which case DurNS is the elapsed time at snapshot.
// Field order is the JSONL export order.
type SpanSnapshot struct {
	ID          int64             `json:"id"`
	Parent      int64             `json:"parent,omitempty"`
	Name        string            `json:"name"`
	StartUnixNS int64             `json:"start_unix_ns"`
	EndUnixNS   int64             `json:"end_unix_ns,omitempty"`
	DurNS       int64             `json:"dur_ns"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

// clock returns the recorder's time source.
func (r *SpanRecorder) clock() time.Time {
	if r.now != nil {
		return r.now()
	}
	return time.Now()
}

// Start opens a new span. parent may be nil (a root span) or any span
// from the same recorder. Span IDs are 1-based in start order; parent
// ID 0 means root. Returns nil on a nil recorder.
func (r *SpanRecorder) Start(name string, parent *Span) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Span{
		rec:   r,
		id:    int64(len(r.spans)) + 1,
		name:  name,
		start: r.clock(),
	}
	if parent != nil {
		s.parent = parent.id
	}
	r.spans = append(r.spans, s)
	return s
}

// End closes the span at the current time. The first End wins; later
// calls and calls on a nil span are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	if s.end.IsZero() {
		s.end = s.rec.clock()
	}
}

// SetAttr sets a key=value annotation, overwriting an existing key.
// No-op on a nil span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, SpanAttr{Key: key, Value: value})
}

// durLocked computes the duration against now; callers hold rec.mu.
func (s *Span) durLocked(now time.Time) time.Duration {
	if !s.end.IsZero() {
		return s.end.Sub(s.start)
	}
	return now.Sub(s.start)
}

// Snapshot returns every span in start order as plain data. Open spans
// snapshot with EndUnixNS 0 and their elapsed duration. Returns nil on
// a nil recorder.
func (r *SpanRecorder) Snapshot() []SpanSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock()
	out := make([]SpanSnapshot, len(r.spans))
	for i, s := range r.spans {
		ss := SpanSnapshot{
			ID:          s.id,
			Parent:      s.parent,
			Name:        s.name,
			StartUnixNS: s.start.UnixNano(),
			DurNS:       int64(s.durLocked(now)),
		}
		if !s.end.IsZero() {
			ss.EndUnixNS = s.end.UnixNano()
		}
		if len(s.attrs) > 0 {
			ss.Attrs = make(map[string]string, len(s.attrs))
			for _, a := range s.attrs {
				ss.Attrs[a.Key] = a.Value
			}
		}
		out[i] = ss
	}
	return out
}

// WriteSpanJSONL writes one JSON object per span, in start order — the
// span counterpart of ptrace.WriteJSONL. Spans carry wall-clock
// timestamps, so two runs never produce identical files; the format is
// for operators and tooling, not golden diffs.
func WriteSpanJSONL(w io.Writer, spans []SpanSnapshot) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteSpanChrome renders spans as Chrome trace-event JSON loadable in
// https://ui.perfetto.dev — the same viewer the ptrace exporter
// targets, so a job's wall-clock span timeline can be inspected side by
// side with its sim-time packet trace. One process (the label), one
// thread per root span, timestamps in microseconds relative to the
// earliest span start.
func WriteSpanChrome(w io.Writer, label string, spans []SpanSnapshot) error {
	var t0 int64
	for i := range spans {
		if i == 0 || spans[i].StartUnixNS < t0 {
			t0 = spans[i].StartUnixNS
		}
	}
	// Resolve every span to its root ancestor so child spans share the
	// root's track.
	parent := make(map[int64]int64, len(spans))
	for i := range spans {
		parent[spans[i].ID] = spans[i].Parent
	}
	root := func(id int64) int64 {
		for parent[id] != 0 {
			id = parent[id]
		}
		return id
	}
	out := make([]ChromeEvent, 0, len(spans)+1)
	out = append(out, ChromeEvent{
		Name: "process_name", Ph: "M",
		Args: map[string]any{"name": label},
	})
	for i := range spans {
		s := &spans[i]
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		for k, v := range s.Attrs {
			args[k] = v
		}
		dur := s.DurNS / 1e3
		if dur < 1 {
			dur = 1
		}
		out = append(out, ChromeEvent{
			Name: s.Name,
			Ph:   "X",
			TS:   (s.StartUnixNS - t0) / 1e3,
			Dur:  dur,
			TID:  root(s.ID),
			Args: args,
		})
	}
	return WriteChrome(w, out)
}

// String renders the span for debugging.
func (s *Span) String() string {
	if s == nil {
		return "<nil span>"
	}
	return fmt.Sprintf("span %s#%d", s.name, s.id)
}
