package ptrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"multiscatter/internal/obs"
)

// WriteJSONL writes one JSON object per event, in stream order. Field
// order is the Event struct order and every field is deterministic, so
// two identically-seeded runs write byte-identical files — the form the
// golden trace test diffs and `-trace <file>` emits by default.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a stream written by WriteJSONL.
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
}

// WriteChromeTrace renders the stream as Chrome trace-event JSON,
// loadable directly in https://ui.perfetto.dev: processes are shards
// (labelled "<label> shard N"), threads are tags, and each lifecycle
// event becomes a span inside its packet's on-air window — stage k of a
// packet occupies the k-th slice of the packet duration, so the
// excite→…→outcome progression reads left to right. Timestamps are
// sim-time microseconds.
func WriteChromeTrace(w io.Writer, label string, events []Event) error {
	// Packet durations are only carried on StageExcite events; index
	// them so later stages of the same lifecycle can be placed.
	type lifecycle struct{ tag, pkt int32 }
	durs := make(map[lifecycle]int64)
	for i := range events {
		if events[i].Stage == StageExcite {
			durs[lifecycle{events[i].Tag, events[i].Packet}] = events[i].DurUS
		}
	}
	seenProc := map[int32]bool{}
	seenThread := map[lifecycle]bool{}
	out := make([]obs.ChromeEvent, 0, len(events)+16)
	for i := range events {
		ev := &events[i]
		pid, tid := int64(ev.Shard), int64(ev.Tag)
		if !seenProc[ev.Shard] {
			seenProc[ev.Shard] = true
			out = append(out, obs.ChromeEvent{
				Name: "process_name", Ph: "M", PID: pid,
				Args: map[string]any{"name": fmt.Sprintf("%s shard %d", label, ev.Shard)},
			})
		}
		tk := lifecycle{ev.Shard, ev.Tag}
		if !seenThread[tk] {
			seenThread[tk] = true
			out = append(out, obs.ChromeEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": fmt.Sprintf("tag %d", ev.Tag)},
			})
		}
		dur := durs[lifecycle{ev.Tag, ev.Packet}]
		slice := dur / int64(len(stageNames))
		if slice < 1 {
			slice = 1
		}
		out = append(out, obs.ChromeEvent{
			Name: ev.Stage.String(),
			Cat:  ev.Proto,
			Ph:   "X",
			TS:   ev.TUS + int64(ev.Stage)*slice,
			Dur:  slice,
			PID:  pid,
			TID:  tid,
			Args: map[string]any{
				"seq": ev.Seq, "pkt": ev.Packet, "proto": ev.Proto, "detail": ev.Detail,
			},
		})
	}
	return obs.WriteChrome(w, out)
}
