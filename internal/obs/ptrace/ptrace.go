// Package ptrace is the per-packet flight recorder: a low-overhead
// lifecycle tracer for the deployment simulators. Every excitation
// packet a tag processes walks a fixed pipeline — excitation →
// energy/wake decision → identification → overlay plan → channel
// arbitration → demod → outcome classification — and a Recorder captures
// one structured Event per stage into lock-free per-shard ring buffers.
//
// The contract mirrors obs.Snapshot.CountersOnly: events are
// timestamped in *sim-time* (timeline microseconds plus a monotonic
// sequence assigned at drain), never wall-clock, and every field is a
// pure function of the run's (seed, config). Two identically-seeded
// runs therefore produce byte-identical event streams at any -workers
// value — the golden test in internal/fleet pins this.
//
// Performance rules:
//
//   - Disabled tracing costs a single pointer check per packet: engines
//     hold a *ShardRecorder that is nil when no Recorder is configured,
//     and guard every emission with `tr != nil`. BenchmarkFleetTrace in
//     internal/fleet proves the nil path is within noise of the
//     pre-recorder baseline.
//   - Each shard's buffer is single-writer (the fleet pool runs one
//     goroutine per shard at a time), so Alloc is a plain slice write —
//     no atomics, no locks. Buffers grow by append up to Capacity, then
//     wrap as a ring: the recorder keeps the *most recent* events per
//     shard, which is what a flight recorder is for.
//   - Sampling is keyed by the timeline packet index (packet % Sample
//     == 0), not by arrival order, so a sampled stream is exactly as
//     deterministic as a full one.
//
// Export paths: WriteJSONL (one stable JSON object per line, the
// golden-diffable form) and WriteChromeTrace (Chrome trace-event JSON,
// loadable in https://ui.perfetto.dev, written by obs.WriteChrome).
// Diff explains the first divergence between two streams down to the
// packet, tag, and stage — see docs/OBSERVABILITY.md.
package ptrace

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Stage names one step of the per-packet lifecycle, in pipeline order.
type Stage uint8

const (
	// StageExcite: the excitation packet arrived at the tag's antenna.
	StageExcite Stage = iota
	// StageEnergy: the harvester's wake decision (only emitted for
	// energy-limited tags).
	StageEnergy
	// StageIdentify: the identification verdict for a clean packet.
	StageIdentify
	// StagePlan: the overlay plan — the tag committed to backscatter.
	StagePlan
	// StageChannel: cross-tag contention arbitration at the receiver
	// (fleet runs only).
	StageChannel
	// StageDemod: the receiver-side demod verdict (range and PER).
	StageDemod
	// StageOutcome: the final outcome classification.
	StageOutcome
)

// stageNames is indexed by Stage.
var stageNames = [...]string{
	"excite", "energy", "identify", "plan", "channel", "demod", "outcome",
}

// String names the stage.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage?"
}

// MarshalJSON renders the stage name, keeping JSONL human-greppable.
func (s Stage) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses a stage name. Any value other than one of the
// seven names is an error; null leaves the stage unchanged, as
// encoding/json does for other types.
func (s *Stage) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return fmt.Errorf("ptrace: stage %s is not a string", b)
	}
	for i, n := range stageNames {
		if name == n {
			*s = Stage(i)
			return nil
		}
	}
	return fmt.Errorf("ptrace: unknown stage %q", name)
}

// Event is one lifecycle record. Every field is deterministic for a
// fixed run config: TUS is the excitation packet's timeline start in
// sim-time microseconds, never wall-clock, and Seq is the event's index
// in the canonical drained stream. JSON field order is the struct
// order, so a marshalled stream is byte-stable.
type Event struct {
	// Seq is the monotonic index in the canonical stream, assigned by
	// Recorder.Drain after the deterministic sort.
	Seq uint64 `json:"seq"`
	// TUS is the excitation packet's start time in sim microseconds.
	TUS int64 `json:"t_us"`
	// DurUS is the packet's on-air duration in microseconds (set on
	// StageExcite, 0 elsewhere).
	DurUS int64 `json:"dur_us,omitempty"`
	// Shard that processed the tag (tagID % numShards in fleet, 0 in sim).
	Shard int32 `json:"shard"`
	// Tag ID and timeline Packet index identifying the lifecycle.
	Tag    int32 `json:"tag"`
	Packet int32 `json:"pkt"`
	// Proto is the excitation protocol name.
	Proto string `json:"proto"`
	// Stage of the pipeline this event records.
	Stage Stage `json:"stage"`
	// Detail is the stage verdict ("awake", "cross-collided",
	// "rssi=-58.3 margin=2.1", ...). Deterministic: formatted only from
	// run-derived values.
	Detail string `json:"detail,omitempty"`
}

// Config sizes a Recorder.
type Config struct {
	// Sample keeps one packet lifecycle in every Sample timeline
	// packets (packet % Sample == 0). 0 or 1 traces every packet.
	Sample int
	// Capacity bounds each shard's ring buffer; older events are
	// overwritten once a shard exceeds it. Default 1<<14.
	Capacity int
}

// Recorder captures lifecycle events for one run at a time. Configure
// (called by the engine at run start) sizes the per-shard buffers;
// Shard hands each worker its single-writer view; Drain merges the
// rings into the canonical stream. A nil *Recorder is valid everywhere
// and records nothing.
type Recorder struct {
	sample   int
	capacity int
	shards   []shardBuf
}

// shardBuf is one shard's ring. Single-writer: only the goroutine
// currently running the shard appends, and phases are separated by the
// pool barrier, so no synchronisation is needed. The pad keeps two
// shards' write cursors off one cache line.
type shardBuf struct {
	events []Event
	next   int  // next write position once wrapped
	full   bool // len(events) reached capacity at least once
	_      [40]byte
}

// New returns a recorder. Zero-value Config traces every packet with
// the default per-shard capacity.
func New(cfg Config) *Recorder {
	if cfg.Sample < 1 {
		cfg.Sample = 1
	}
	if cfg.Capacity < 1 {
		cfg.Capacity = 1 << 14
	}
	return &Recorder{sample: cfg.Sample, capacity: cfg.Capacity}
}

// Configure resets the recorder for a run over the given shard count.
// Engines call it once at run start; a nil receiver is a no-op.
func (r *Recorder) Configure(shards int) {
	if r == nil {
		return
	}
	if shards < 1 {
		shards = 1
	}
	r.shards = make([]shardBuf, shards)
}

// Shard returns the single-writer recorder for one shard, or nil when
// the receiver is nil — so engines pay one pointer check per packet
// when tracing is off.
func (r *Recorder) Shard(shard int) *ShardRecorder {
	if r == nil || shard < 0 || shard >= len(r.shards) {
		return nil
	}
	return &ShardRecorder{r: r, shard: int32(shard)}
}

// ShardRecorder is one shard's write handle.
type ShardRecorder struct {
	r     *Recorder
	shard int32
}

// Mask precomputes the sampling decision for each of n timeline
// packets. The fleet engine indexes it in its per-tag × per-packet hot
// loop instead of re-evaluating the modulo tags-many times per packet.
// nil when the receiver is nil, so `mask != nil && mask[i]` is the
// traced-packet test.
func (r *Recorder) Mask(n int) []bool {
	if r == nil {
		return nil
	}
	m := make([]bool, n)
	for i := 0; i < n; i += r.sample {
		m[i] = true
	}
	return m
}

// Alloc returns the next event slot in the shard's ring (zeroed except
// Shard), overwriting the oldest once the ring is full; callers fill it
// in place. Seq is assigned later, at Drain. The pointer is valid until
// the next Alloc on the same shard.
func (sr *ShardRecorder) Alloc() *Event {
	b := &sr.r.shards[sr.shard]
	if !b.full {
		b.events = append(b.events, Event{Shard: sr.shard})
		if len(b.events) >= sr.r.capacity {
			b.full = true
		}
		return &b.events[len(b.events)-1]
	}
	ev := &b.events[b.next]
	*ev = Event{Shard: sr.shard}
	b.next++
	if b.next == len(b.events) {
		b.next = 0
	}
	return ev
}

// Drain merges every shard's ring into the canonical stream: sorted by
// (packet, tag, stage) — a total order over lifecycle events that no
// goroutine schedule can perturb — with Seq assigned in stream order.
// The shard buffers are left intact; call Configure to reset. Safe only
// after the run's workers have finished.
func (r *Recorder) Drain() []Event {
	if r == nil {
		return nil
	}
	var n int
	for i := range r.shards {
		n += len(r.shards[i].events)
	}
	out := make([]Event, 0, n)
	for i := range r.shards {
		out = append(out, r.shards[i].events...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Packet != b.Packet {
			return a.Packet < b.Packet
		}
		if a.Tag != b.Tag {
			return a.Tag < b.Tag
		}
		return a.Stage < b.Stage
	})
	for i := range out {
		out[i].Seq = uint64(i)
	}
	return out
}
