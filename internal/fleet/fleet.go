// Package fleet is the deployment simulation engine: N backscatter tags
// placed on a floor plan (one tag is just N = 1), M excitation sources
// feeding one shared packet timeline, and K receivers, executed as one
// deployment. Every tag walks the same chain — harvest, identify,
// supported set, contention, downlink — over the outcome and RNG
// vocabulary of internal/sim. Work is sharded over a GOMAXPROCS-sized
// worker pool with deterministic parallel RNG: per-shard streams for
// identification and downlink draws (seed = Config.Seed + shardID),
// per-site streams for channel shadowing (keyed by link-table entry) and
// harvest jitter (keyed by tag ID) — so a fleet run, shadowing included,
// reproduces byte-for-byte regardless of scheduling or GOMAXPROCS.
// Cross-tag collision accounting models the interference of two tags
// backscattering the same excitation packet at the same receiver,
// resolved by a capture margin; a calibrated-link table keyed by
// (protocol, distance bucket, mode), built once before the parallel
// phases, keeps the per-packet hot path free of repeated RSSI/BER/PER
// computation.
package fleet

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"strconv"
	"sync"
	"time"

	"multiscatter/internal/channel"
	"multiscatter/internal/excite"
	"multiscatter/internal/obs"
	"multiscatter/internal/obs/ptrace"
	"multiscatter/internal/overlay"
	"multiscatter/internal/phy/ofdm"
	"multiscatter/internal/radio"
	"multiscatter/internal/sim"
)

// DivergeHook, when non-nil, forces any downlink response for which it
// returns true to classify as cross-collided. It exists so the
// divergence-explainer tests can force a seeded, workers-dependent
// divergence and assert the explainer names the packet; it must never
// be set outside tests.
var DivergeHook func(workers, tag, packet int) bool

const (
	// protocolSlots sizes per-protocol arrays (ProtocolUnknown..80211n).
	protocolSlots = int(radio.Protocol80211n) + 1
	// outcomeSlots sizes per-outcome arrays (Delivered..DecodedConcurrent).
	outcomeSlots = int(sim.DecodedConcurrent) + 1
	// maxShards bounds the shard count. It is a fixed constant — NOT a
	// function of Workers or GOMAXPROCS — because the shard partition
	// determines RNG stream assignment and must not change with the
	// degree of parallelism.
	maxShards = 64
)

// TagSpec places and configures one tag of the fleet.
type TagSpec struct {
	// X, Y position on the floor plan in metres.
	X, Y float64
	// Supported protocols; empty means all four.
	Supported []radio.Protocol
	// IdentAccuracy overrides the per-protocol identification
	// probability; zero entries default to the paper's 2.5 Msps
	// extended-window figures (sim.DefaultIdentAccuracy).
	IdentAccuracy map[radio.Protocol]float64
	// Mode is the overlay operating mode (default Mode1).
	Mode overlay.Mode
	// Energy limits operation when non-nil; nil means always powered.
	Energy *sim.EnergyConfig
}

// ReceiverSpec places one commodity receiver on the floor plan.
type ReceiverSpec struct {
	X, Y float64
}

// Config describes one fleet deployment.
type Config struct {
	// Sources emit the shared excitation timeline.
	Sources []excite.Source
	// Tags of the fleet. Use PlaceGrid for floor-plan grids.
	Tags []TagSpec
	// Receivers; empty defaults to one receiver at the tag centroid.
	// Each tag reports to its nearest receiver, and cross-tag collisions
	// are arbitrated per receiver.
	Receivers []ReceiverSpec
	// Channel model (default LoS).
	Channel *channel.Model
	// Span of the simulation (default 10 s).
	Span time.Duration
	// BucketMS sizes the fleet-throughput timeline buckets (default 500).
	BucketMS int
	// Seed for reproducibility. The excitation timeline draws from
	// sim.SeedRNG(Seed, StreamFleetTimeline); shard s draws from
	// sim.SeedRNG(Seed+s, StreamFleetShard/StreamFleetDownlink);
	// link shadowing draws from sim.SeedRNGAt(Seed, StreamFleetShadow,
	// linkKey) and harvest jitter from sim.SeedRNGAt(Seed,
	// StreamEnergyHarvest, tagID).
	Seed int64
	// Workers sizes the worker pool (default runtime.GOMAXPROCS(0)).
	// The result is identical for every value.
	Workers int
	// Pool, when non-nil, executes the run's shards on a shared worker
	// pool instead of spawning Workers goroutines for this run alone —
	// the multi-deployment service (internal/serve) points every job at
	// one process-wide Pool. Workers is ignored when Pool is set. The
	// result is identical either way.
	Pool *Pool
	// MaxEvents, when positive, is the run's packet budget: if the
	// excitation timeline exceeds it the run fails up front with
	// ErrBudget instead of simulating. The check is deterministic (the
	// timeline depends only on Sources, Span and Seed), so admission
	// control can rely on it.
	MaxEvents int
	// CaptureDB is the RSSI margin by which the strongest of several
	// tags backscattering the same packet must beat the runner-up to be
	// captured by the receiver (default 10 dB). Below the margin all
	// colliding tags lose the packet. Boundary semantics are pinned by
	// TestCaptureMarginBoundary: a margin exactly equal to CaptureDB IS
	// captured (the loss test is margin < CaptureDB), and an exact RSSI
	// tie resolves to the lowest tag ID (the contention merge runs in
	// tag-ID order with strictly-greater comparisons).
	CaptureDB float64
	// ConcurrentOFDM is the maximum number of tags the receiver recovers
	// jointly from one collided 802.11n excitation packet via
	// subcarrier-redundancy concurrent OFDM decoding
	// (ofdm.AssignConcurrent / ofdm.JointDemodulator): collisions of
	// 2..ConcurrentOFDM OFDM-responding tags at one receiver classify as
	// sim.DecodedConcurrent and every participant delivers its bits
	// (disjoint subcarrier groups keep the per-tag symbol rate), subject
	// to the same per-tag PER draw as a clean delivery; larger collisions
	// fall back to capture arbitration. 0 defaults to
	// ofdm.MaxSubcarrierGroups (4); negative disables joint decoding.
	// Non-OFDM protocols always use capture arbitration.
	ConcurrentOFDM int
	// DistanceBucketM is the calibrated-link table resolution in metres
	// (default 0.25).
	DistanceBucketM float64
	// Phase, when non-nil, enables the phase-aware complex channel: each
	// link-table entry additionally draws a channel.PhaseDrift from
	// sim.SeedRNGAt(Seed, StreamChannelPhase, linkKey), and the
	// coherent receiver's drift-tracking penalty (minus its combining
	// gain) is folded into the link's PER working point. RSSI and range
	// stay on the magnitude surface, and a nil Phase leaves every number
	// byte-identical to the magnitude-only model — the backward-compat
	// contract of docs/CHANNELS.md.
	Phase *PhaseConfig
	// Baseline selects the receiver decoding architecture
	// (BaselineMultiscatter or BaselineDoubleDecker). Double-decker
	// implies a phase-aware channel: a nil Phase is auto-enabled with
	// defaults, the per-packet tag capacity is scaled by its γ·spread
	// and pilot budget, and the residual direct-path leakage joins the
	// link penalty.
	Baseline BaselineSystem
	// Obs receives the run's metrics (counters, stage timers, the
	// per-shard duration histogram); nil defaults to obs.Default(). The
	// fleet.* counters recorded there are derived from the deterministic
	// Result, so their totals are identical at any Workers value; stage
	// timers and the shard histogram carry wall-clock and are not.
	// Metric names are catalogued in docs/OBSERVABILITY.md.
	Obs *obs.Registry
	// Trace, when non-nil, records every sampled packet's lifecycle
	// (excite → energy → identify → plan → channel → demod → outcome)
	// into the flight recorder. Events are timestamped in sim-time, so
	// the drained stream is byte-identical at any Workers value. nil
	// (the default) keeps the hot path to one pointer check per packet.
	Trace *ptrace.Recorder
}

// BaselineSystem selects the receiver decoding architecture of a fleet
// run. The zero value is the multiscatter overlay receiver.
type BaselineSystem string

const (
	// BaselineMultiscatter is the default multiscatter overlay receiver.
	BaselineMultiscatter BaselineSystem = ""
	// BaselineDoubleDecker decodes tag bits from the superposed
	// excitation+backscatter stream at a single commodity receiver
	// (baseline.DoubleDecker): pilot-estimated complex channel, γ·spread
	// symbol groups per tag bit, residual direct-path self-interference.
	BaselineDoubleDecker BaselineSystem = "doubledecker"
)

// PhaseConfig parameterizes the phase-aware complex channel of a fleet
// run. Zero fields take the defaults noted per field.
type PhaseConfig struct {
	// MaxDriftHz bounds each link's residual phase drift rate; the
	// per-link rate is drawn uniformly from ±MaxDriftHz (default 200).
	MaxDriftHz float64
	// CoherentGainDB is the SNR the coherent receiver gains from
	// phase-aligned combining when its estimate is fresh (default 1).
	CoherentGainDB float64
	// EstimateHorizon is how long one pilot estimate must stay coherent
	// between re-estimations (default 1 ms).
	EstimateHorizon time.Duration
}

// withDefaults fills zero fields; called on a copy so the caller's
// struct is never mutated.
func (p PhaseConfig) withDefaults() PhaseConfig {
	if p.MaxDriftHz <= 0 {
		p.MaxDriftHz = 200
	}
	if p.CoherentGainDB == 0 {
		p.CoherentGainDB = 1
	}
	if p.EstimateHorizon <= 0 {
		p.EstimateHorizon = time.Millisecond
	}
	return p
}

// PlaceGrid places n tags on a w×h-metre floor plan in a near-square
// grid, row-major from the origin corner, inset by half a cell so no tag
// sits on a wall.
func PlaceGrid(n int, w, h float64) []TagSpec {
	if n <= 0 {
		return nil
	}
	cols := int(math.Ceil(math.Sqrt(float64(n) * w / h)))
	if cols < 1 {
		cols = 1
	}
	rows := (n + cols - 1) / cols
	tags := make([]TagSpec, 0, n)
	for i := 0; i < n; i++ {
		r, c := i/cols, i%cols
		tags = append(tags, TagSpec{
			X: (float64(c) + 0.5) * w / float64(cols),
			Y: (float64(r) + 0.5) * h / float64(rows),
		})
	}
	return tags
}

// PlaceReceivers spreads k receivers over a w×h floor plan on its own
// near-square grid, so every tag has a receiver within a fraction of the
// floor diagonal.
func PlaceReceivers(k int, w, h float64) []ReceiverSpec {
	specs := PlaceGrid(k, w, h)
	out := make([]ReceiverSpec, len(specs))
	for i, s := range specs {
		out[i] = ReceiverSpec{X: s.X, Y: s.Y}
	}
	return out
}

// contention aggregates, for one (receiver, packet) pair, which tags
// backscattered the packet. Merged serially in tag-ID order, so the
// winner of an RSSI tie is the lowest tag ID and the aggregate is
// deterministic.
type contention struct {
	count      int32
	bestTag    int32
	bestRSSI   float64
	secondRSSI float64
}

// add merges one tag's response. Callers MUST add in ascending tag-ID
// order (the serial merge does): the strictly-greater comparisons then
// make the lowest tag ID the deterministic winner of an exact RSSI tie.
// Pinned by TestContentionTieBreak.
func (c *contention) add(tag int32, rssi float64) {
	c.count++
	switch {
	case c.count == 1:
		c.bestTag, c.bestRSSI, c.secondRSSI = tag, rssi, math.Inf(-1)
	case rssi > c.bestRSSI:
		c.secondRSSI = c.bestRSSI
		c.bestTag, c.bestRSSI = tag, rssi
	case rssi > c.secondRSSI:
		c.secondRSSI = rssi
	}
}

// tagRun is the per-tag working state and partial result.
type tagRun struct {
	spec      TagSpec
	id        int
	rx        int
	dist      float64
	bucket    int
	mode      overlay.Mode
	supported [protocolSlots]bool
	accuracy  [protocolSlots]float64

	// linked holds the tag's calibrated working point per protocol and
	// bits the tag-bit capacity of one packet per excitation source
	// (shared by every tag of the same mode), both written by prefill
	// and only read by the parallel phases.
	linked [protocolSlots]linkEntry
	bits   []int

	// wake is the tag's energy profile's wake schedule, shared by every
	// tag of an equal jitter-free profile; nil means always powered.
	wake *wakeSchedule

	// responses holds the timeline packets this tag backscattered
	// (awake, clean, identified, supported).
	responses packetSet
	// counts[protocol][outcome] accumulates the packet fates.
	counts  [protocolSlots][outcomeSlots]int
	tagBits [protocolSlots]int
	buckets []float64
}

// trace1 records one lifecycle stage event for timeline packet i. Only
// called behind a `traced` guard, so the disabled path never builds an
// Event.
func (t *tagRun) trace1(tr *ptrace.ShardRecorder, e excite.Event, i int, stage ptrace.Stage, detail string) {
	ev := tr.Alloc()
	ev.TUS = int64(e.Start / time.Microsecond)
	ev.Tag = int32(t.id)
	ev.Packet = int32(i)
	ev.Proto = e.Protocol.String()
	ev.Stage = stage
	ev.Detail = detail
}

// trace2 records a stage verdict plus the lifecycle's final outcome.
func (t *tagRun) trace2(tr *ptrace.ShardRecorder, e excite.Event, i int, stage ptrace.Stage, detail string, out sim.Outcome) {
	t.trace1(tr, e, i, stage, detail)
	t.trace1(tr, e, i, ptrace.StageOutcome, out.String())
}

// The detail builders below produce the same bytes as the obvious
// fmt.Sprintf calls; strconv keeps the traced hot path off fmt's
// reflection machinery (BenchmarkFleetTrace/sample100 gates this).

// detailN renders prefix + n, e.g. "cross-collided n=3".
func detailN(prefix string, n int32) string {
	return string(strconv.AppendInt(append(make([]byte, 0, 32), prefix...), int64(n), 10))
}

// detailCaptured renders "captured n=<n> margin=<m>dB" with %.1f margin.
func detailCaptured(n int32, marginDB float64) string {
	b := append(make([]byte, 0, 48), "captured n="...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, " margin="...)
	b = strconv.AppendFloat(b, marginDB, 'f', 1, 64)
	return string(append(b, "dB"...))
}

// detailPERLoss renders "per-loss per=<per>" with %.4f.
func detailPERLoss(per float64) string {
	b := append(make([]byte, 0, 32), "per-loss per="...)
	return string(strconv.AppendFloat(b, per, 'f', 4, 64))
}

// detailDelivered renders "ok rssi=<rssi>dBm bits=<bits>" with %.1f rssi.
func detailDelivered(rssiDBm float64, bits int) string {
	b := append(make([]byte, 0, 48), "ok rssi="...)
	b = strconv.AppendFloat(b, rssiDBm, 'f', 1, 64)
	b = append(b, "dBm bits="...)
	return string(strconv.AppendInt(b, int64(bits), 10))
}

// ErrBudget is returned (wrapped, with the actual counts) when a run
// exceeds its Config.MaxEvents packet budget.
var ErrBudget = fmt.Errorf("packet budget exceeded")

// Run executes the fleet deployment.
func Run(cfg Config) (*Result, error) { return RunContext(context.Background(), cfg) }

// RunContext executes the fleet deployment under a context: when ctx is
// cancelled the run aborts between shards and returns ctx's error. A
// run that completes is unaffected by how it was scheduled — results
// are byte-identical at any Workers value, with or without a shared
// Pool.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if len(cfg.Sources) == 0 {
		return nil, fmt.Errorf("fleet: no excitation sources")
	}
	if len(cfg.Tags) == 0 {
		return nil, fmt.Errorf("fleet: no tags")
	}
	if cfg.Span <= 0 {
		cfg.Span = 10 * time.Second
	}
	if cfg.BucketMS <= 0 {
		cfg.BucketMS = 500
	}
	bucketDur := time.Duration(cfg.BucketMS) * time.Millisecond
	if bucketDur <= 0 || bucketDur/time.Millisecond != time.Duration(cfg.BucketMS) {
		return nil, fmt.Errorf("fleet: bucket length %d ms overflows time.Duration", cfg.BucketMS)
	}
	if cfg.Channel == nil {
		cfg.Channel = channel.NewLoS()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CaptureDB <= 0 {
		cfg.CaptureDB = 10
	}
	if cfg.ConcurrentOFDM == 0 {
		cfg.ConcurrentOFDM = ofdm.MaxSubcarrierGroups
	}
	if cfg.DistanceBucketM <= 0 {
		cfg.DistanceBucketM = 0.25
	}
	switch cfg.Baseline {
	case BaselineMultiscatter, BaselineDoubleDecker:
	default:
		return nil, fmt.Errorf("fleet: unknown baseline %q", cfg.Baseline)
	}
	if cfg.Baseline == BaselineDoubleDecker && cfg.Phase == nil {
		cfg.Phase = &PhaseConfig{}
	}
	if cfg.Phase != nil {
		pc := cfg.Phase.withDefaults()
		cfg.Phase = &pc
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.Default()
	}
	defer cfg.Obs.Stage("fleet.run").ObserveSince(time.Now())
	if cfg.Pool != nil {
		cfg.Obs.Gauge("fleet.workers").Set(float64(cfg.Pool.Size()))
	} else {
		cfg.Obs.Gauge("fleet.workers").Set(float64(cfg.Workers))
	}
	receivers := cfg.Receivers
	if len(receivers) == 0 {
		var cx, cy float64
		for _, t := range cfg.Tags {
			cx += t.X
			cy += t.Y
		}
		n := float64(len(cfg.Tags))
		receivers = []ReceiverSpec{{X: cx / n, Y: cy / n}}
	}

	// Shared excitation timeline and its tag-side collision flags: both
	// are properties of the air, identical for every tag, so they are
	// computed once and shared read-only across the pool.
	tTimeline := time.Now()
	events := excite.Timeline(cfg.Sources, cfg.Span, sim.SeedRNG(cfg.Seed, sim.StreamFleetTimeline))
	if cfg.MaxEvents > 0 && len(events) > cfg.MaxEvents {
		cfg.Obs.Stage("fleet.timeline").ObserveSince(tTimeline)
		return nil, fmt.Errorf("fleet: timeline has %d packets, budget %d: %w",
			len(events), cfg.MaxEvents, ErrBudget)
	}
	collided := excite.CollisionFlags(events)
	exciteCollided := 0
	for _, c := range collided {
		if c {
			exciteCollided++
		}
	}
	cfg.Obs.Stage("fleet.timeline").ObserveSince(tTimeline)

	// Prefill resolves everything static before the parallel phases:
	// per-tag state (receiver assignment, link-table bucket, profile,
	// empty response set), the calibrated-link table, and one wake
	// schedule per energy profile. Tag placements, sources and the
	// timeline are fixed, so the parallel phases run on plain array and
	// bit reads.
	tPrefill := time.Now()
	numBuckets := int(cfg.Span/bucketDur) + 1
	table := newLinkTable(cfg.Channel, cfg.DistanceBucketM, cfg.Seed,
		cfg.Phase, cfg.Baseline == BaselineDoubleDecker)
	tags := make([]*tagRun, len(cfg.Tags))
	for i, spec := range cfg.Tags {
		t := &tagRun{spec: spec, id: i, mode: spec.Mode,
			responses: newPacketSet(len(events)), buckets: make([]float64, numBuckets)}
		if t.mode == 0 {
			t.mode = overlay.Mode1
		}
		t.rx = 0
		best := math.Inf(1)
		for ri, r := range receivers {
			d := math.Hypot(spec.X-r.X, spec.Y-r.Y)
			if d < best {
				best, t.rx = d, ri
			}
		}
		t.dist = best
		t.bucket = table.bucketOf(best)
		if len(spec.Supported) == 0 {
			for _, p := range radio.Protocols {
				t.supported[p] = true
			}
		} else {
			for _, p := range spec.Supported {
				t.supported[p] = true
			}
		}
		for _, p := range radio.Protocols {
			a := spec.IdentAccuracy[p]
			if a <= 0 {
				a = sim.DefaultIdentAccuracy[p]
			}
			t.accuracy[p] = a
		}
		tags[i] = t
	}
	stats := table.prefill(tags, cfg.Sources)
	buildWakeSchedules(tags, events, cfg.Seed)
	cfg.Obs.Stage("fleet.prefill").ObserveSince(tPrefill)

	// Shard the fleet: a fixed partition (independent of Workers) so the
	// per-shard RNG streams, and therefore the results, do not move when
	// the pool is resized.
	numShards := len(tags)
	if numShards > maxShards {
		numShards = maxShards
	}
	shardTags := make([][]*tagRun, numShards)
	for _, t := range tags {
		s := t.id % numShards
		shardTags[s] = append(shardTags[s], t)
	}
	// The flight recorder shares the shard partition, so each shard's
	// ring is single-writer and the drained stream cannot depend on the
	// worker count (see internal/obs/ptrace).
	cfg.Trace.Configure(numShards)

	// shardObs wraps a shard body so each shard execution lands in the
	// fleet.shard_ns histogram and the fleet.shard_runs counter. The
	// instruments are atomic, so concurrent shards record without locks.
	shardObs := func(fn func(int)) func(int) {
		h := cfg.Obs.Histogram("fleet.shard_ns", obs.TimeBucketsNS())
		runs := cfg.Obs.Counter("fleet.shard_runs")
		return func(shard int) {
			t0 := time.Now()
			fn(shard)
			h.Observe(float64(time.Since(t0)))
			runs.Inc()
		}
	}

	// traceMask is the per-packet sampling decision, computed once and
	// indexed (read-only) by every shard's hot loop; nil when tracing is
	// off, so `traceMask != nil && traceMask[i]` is the traced test.
	traceMask := cfg.Trace.Mask(len(events))

	// Phase 1 — identification: every tag classifies every packet
	// (asleep / collided / misidentified / unsupported / responds). The
	// loop visits asleep packets too, in timeline order, so traced
	// events reach the shard rings in emission order; an asleep packet
	// costs a mask test, a bit test and a counter.
	tIdentify := time.Now()
	runShards(ctx, cfg.Pool, cfg.Workers, numShards, shardObs(func(shard int) {
		rng := sim.SeedRNG(cfg.Seed+int64(shard), sim.StreamFleetShard)
		tr := cfg.Trace.Shard(shard)
		for _, t := range shardTags[shard] {
			modeStr := ""
			if tr != nil {
				modeStr = t.mode.String() // hoisted: Mode.String formats
			}
			for i, e := range events {
				p := e.Protocol
				// Tracing pays one nil check per packet when off; all
				// event construction sits behind `traced`.
				traced := traceMask != nil && traceMask[i]
				if traced {
					ev := tr.Alloc()
					ev.TUS = int64(e.Start / time.Microsecond)
					ev.DurUS = int64(e.Duration / time.Microsecond)
					ev.Tag = int32(t.id)
					ev.Packet = int32(i)
					ev.Proto = p.String()
					ev.Stage = ptrace.StageExcite
					if collided[i] {
						ev.Detail = "air-collided"
					}
				}
				if t.wake != nil {
					if !t.wake.awake.has(i) {
						t.counts[p][sim.TagAsleep]++
						if traced {
							t.trace2(tr, e, i, ptrace.StageEnergy, "asleep", sim.TagAsleep)
						}
						continue
					}
					if traced {
						t.trace1(tr, e, i, ptrace.StageEnergy, "awake")
					}
				}
				if collided[i] {
					t.counts[p][sim.Collided]++
					if traced {
						t.trace2(tr, e, i, ptrace.StageIdentify, "air-collision", sim.Collided)
					}
					continue
				}
				if rng.Float64() > t.accuracy[p] {
					t.counts[p][sim.Misidentified]++
					if traced {
						t.trace2(tr, e, i, ptrace.StageIdentify, "missed", sim.Misidentified)
					}
					continue
				}
				if !t.supported[p] {
					t.counts[p][sim.Unsupported]++
					if traced {
						t.trace2(tr, e, i, ptrace.StageIdentify, "ok", sim.Unsupported)
					}
					continue
				}
				if traced {
					t.trace1(tr, e, i, ptrace.StageIdentify, "ok")
					t.trace1(tr, e, i, ptrace.StagePlan, modeStr)
				}
				t.responses.set(i)
			}
		}
	}))
	cfg.Obs.Stage("fleet.identify").ObserveSince(tIdentify)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("fleet: run aborted: %w", err)
	}

	// Merge — cross-tag contention: serial, in tag-ID order, so RSSI
	// ties resolve to the lowest tag ID deterministically. Two tags
	// backscattering the same excitation packet toward the same receiver
	// interfere; the receiver captures the strongest only if it clears
	// the capture margin.
	tContention := time.Now()
	cont := make([][]contention, len(receivers))
	for ri := range cont {
		cont[ri] = make([]contention, len(events))
	}
	for _, t := range tags {
		for w, word := range t.responses {
			for ; word != 0; word &= word - 1 {
				ei := w*64 + bits.TrailingZeros64(word)
				p := events[ei].Protocol
				cont[t.rx][ei].add(int32(t.id), t.linked[p].RSSIdBm)
			}
		}
	}

	cfg.Obs.Stage("fleet.contention").ObserveSince(tContention)

	// Phase 2 — downlink: winners of the contention deliver their
	// overlay bits if the calibrated link sustains them.
	tDownlink := time.Now()
	runShards(ctx, cfg.Pool, cfg.Workers, numShards, shardObs(func(shard int) {
		rng := sim.SeedRNG(cfg.Seed+int64(shard), sim.StreamFleetDownlink)
		tr := cfg.Trace.Shard(shard)
		for _, t := range shardTags[shard] {
			// Ascending packet order: the shard's PER draws follow it,
			// and the golden traces pin that draw order.
			for w, word := range t.responses {
				for ; word != 0; word &= word - 1 {
					ei := w*64 + bits.TrailingZeros64(word)
					e := events[ei]
					p := e.Protocol
					c := &cont[t.rx][ei]
					traced := traceMask != nil && traceMask[ei]
					// Concurrent OFDM joint decode: a collision of up to
					// ConcurrentOFDM tags on an 802.11n packet is not arbitrated
					// by capture at all — every participant rides its own
					// subcarrier group (ofdm.AssignConcurrent) and the receiver
					// separates them jointly. The decision depends only on the
					// shared contention count, so it is identical for every
					// participant and at any Workers value.
					joint := p == radio.Protocol80211n && c.count > 1 &&
						cfg.ConcurrentOFDM > 1 && int(c.count) <= cfg.ConcurrentOFDM
					// Capture-loss boundary (pinned by TestCaptureMarginBoundary):
					// a margin strictly below CaptureDB loses; exactly CaptureDB
					// is captured. An exact RSSI tie makes the margin 0 (< any
					// positive CaptureDB), but bestTag — the lowest tag ID, by
					// merge order — is still the deterministic capture candidate.
					lost := !joint && c.count > 1 &&
						(c.bestTag != int32(t.id) || c.bestRSSI-c.secondRSSI < cfg.CaptureDB)
					if DivergeHook != nil && DivergeHook(cfg.Workers, t.id, ei) {
						lost, joint = true, false
					}
					if lost {
						t.counts[p][sim.CrossCollided]++
						if traced {
							t.trace2(tr, e, ei, ptrace.StageChannel,
								detailN("cross-collided n=", c.count), sim.CrossCollided)
						}
						continue
					}
					if traced {
						switch {
						case joint:
							t.trace1(tr, e, ei, ptrace.StageChannel,
								detailN("joint-ofdm n=", c.count))
						case c.count > 1:
							t.trace1(tr, e, ei, ptrace.StageChannel,
								detailCaptured(c.count, c.bestRSSI-c.secondRSSI))
						default:
							t.trace1(tr, e, ei, ptrace.StageChannel, "clear")
						}
					}
					entry := t.linked[p]
					if !entry.InRange {
						t.counts[p][sim.LostDownlink]++
						if traced {
							t.trace2(tr, e, ei, ptrace.StageDemod, "out-of-range", sim.LostDownlink)
						}
						continue
					}
					if entry.PERTag > 0 && rng.Float64() < entry.PERTag {
						t.counts[p][sim.LostDownlink]++
						if traced {
							t.trace2(tr, e, ei, ptrace.StageDemod,
								detailPERLoss(entry.PERTag), sim.LostDownlink)
						}
						continue
					}
					outcome := sim.Delivered
					if joint {
						outcome = sim.DecodedConcurrent
					}
					t.counts[p][outcome]++
					pktBits := t.bits[e.Source]
					t.tagBits[p] += pktBits
					if b := int(e.Start / bucketDur); b < len(t.buckets) {
						t.buckets[b] += float64(pktBits)
					}
					if traced {
						t.trace2(tr, e, ei, ptrace.StageDemod,
							detailDelivered(entry.RSSIdBm, pktBits), outcome)
					}
				}
			}
		}
	}))
	cfg.Obs.Stage("fleet.downlink").ObserveSince(tDownlink)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("fleet: run aborted: %w", err)
	}

	tReduce := time.Now()
	res, err := reduce(cfg, receivers, tags, events, exciteCollided, bucketDur, stats)
	cfg.Obs.Stage("fleet.reduce").ObserveSince(tReduce)
	if err == nil {
		recordRun(cfg.Obs, res)
	}
	return res, err
}

// runShards executes fn(shard) for every shard — on the shared pool
// when one is given, else on a private pool of workers (sync.WaitGroup
// + channel). Each shard's work is self-contained, so scheduling order
// cannot influence results. Once ctx is cancelled the remaining shards
// are skipped; the caller detects the abort via ctx.Err.
func runShards(ctx context.Context, pool *Pool, workers, shards int, fn func(shard int)) {
	run := fn
	if ctx.Done() != nil {
		run = func(s int) {
			if ctx.Err() != nil {
				return
			}
			fn(s)
		}
	}
	if pool != nil {
		pool.Run(shards, run)
		return
	}
	if workers > shards {
		workers = shards
	}
	if workers <= 1 {
		for s := 0; s < shards; s++ {
			run(s)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				run(s)
			}
		}()
	}
	for s := 0; s < shards; s++ {
		next <- s
	}
	close(next)
	wg.Wait()
}
