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
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"strconv"
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
	// sim.SeedSource(Seed+s, StreamFleetShard/StreamFleetDownlink);
	// link shadowing draws from sim.SeedRNGAt(Seed, StreamFleetShadow,
	// linkKey) and harvest jitter from sim.SeedRNGAt(Seed,
	// StreamEnergyHarvest, tagID).
	Seed int64
	// Workers sizes the worker pool (default runtime.GOMAXPROCS(0)).
	// The result is identical for every value.
	Workers int
	// Pool, when non-nil, executes the run's shards on a shared worker
	// pool — the multi-deployment service (internal/serve) points every
	// job at one process-wide Pool. When nil, the run starts a private
	// Pool of min(Workers, shards) workers and closes it before
	// returning. Workers is ignored when Pool is set. The result is
	// identical either way.
	Pool *Pool
	// MaxEvents, when positive, is the run's packet budget: if the
	// excitation timeline exceeds it the run fails up front with
	// ErrBudget instead of simulating. The check is deterministic (the
	// timeline depends only on Sources, Span and Seed), so admission
	// control can rely on it.
	MaxEvents int
	// CaptureDB is the RSSI margin by which the strongest of several
	// tags backscattering the same packet must beat the runner-up to be
	// captured by the receiver (default 10 dB; NaN is an error). Below
	// the margin all colliding tags lose the packet. Boundary semantics
	// are pinned by TestCaptureMarginBoundary: a margin exactly equal to
	// CaptureDB IS captured (the loss test is margin < CaptureDB). Of
	// tags with exactly equal RSSI the lowest ID ranks first, so it is
	// the capture candidate, but its margin of 0 never clears CaptureDB.
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
}

// withDefaults fills zero fields; called on a copy so the caller's
// struct is never mutated.
func (p PhaseConfig) withDefaults() PhaseConfig {
	if p.MaxDriftHz <= 0 {
		p.MaxDriftHz = 200
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

// tracedContention is what a traced response's downlink trace details
// print of its contention: how many tags backscattered the packet at the
// receiver, and the best tag's RSSI margin over the runner-up.
type tracedContention struct {
	count    int32
	marginDB float64
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
	// missCut holds, per protocol, the sim.Cut of the tag's
	// identification accuracy: a draw above it misses the packet.
	missCut [protocolSlots]int64

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
	// (awake, clean, identified, supported). Contention marks the
	// responses another tag's collision cost it in lost, and those the
	// receiver decodes jointly with other tags' in joint.
	responses, lost, joint packetSet
	// traced holds the contention of each traced response, in ascending
	// packet order; empty when tracing is off.
	traced []tracedContention
	// counts[protocol][outcome] accumulates the packet fates.
	counts  [protocolSlots][outcomeSlots]int
	tagBits [protocolSlots]int
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
	cfg, err := withDefaults(cfg)
	if err != nil {
		return nil, err
	}
	defer cfg.Obs.Stage("fleet.run").ObserveSince(time.Now())
	fr, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	if fr.cfg.Pool == nil {
		fr.cfg.Pool = NewPool(min(cfg.Workers, len(fr.shardTags)))
		defer fr.cfg.Pool.Close()
	}
	cfg.Obs.Gauge("fleet.workers").Set(float64(fr.cfg.Pool.Size()))

	// Method expressions, not method values: the table allocates no
	// closures.
	for _, phase := range []struct {
		stage string
		run   func(*fleetRun, context.Context)
	}{
		{"fleet.identify", (*fleetRun).identify},
		{"fleet.contention", (*fleetRun).contend},
		{"fleet.downlink", (*fleetRun).downlink},
	} {
		t0 := time.Now()
		phase.run(fr, ctx)
		cfg.Obs.Stage(phase.stage).ObserveSince(t0)
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("fleet: run aborted: %w", err)
		}
	}

	tReduce := time.Now()
	res, err := reduce(cfg, fr.receivers, fr.tags, fr.shardBuckets, fr.events, fr.exciteCollided, fr.bucketDur, fr.stats)
	cfg.Obs.Stage("fleet.reduce").ObserveSince(tReduce)
	if err == nil {
		recordRun(cfg.Obs, res)
	}
	return res, err
}

// withDefaults validates cfg and fills its zero fields.
func withDefaults(cfg Config) (Config, error) {
	if len(cfg.Sources) == 0 {
		return cfg, fmt.Errorf("fleet: no excitation sources")
	}
	if len(cfg.Tags) == 0 {
		return cfg, fmt.Errorf("fleet: no tags")
	}
	// An infinite rate's mean gap rounds to 0 ns, so the timeline would
	// never advance; a NaN rate fails every comparison.
	for i, s := range cfg.Sources {
		if !finite(s.PacketRate) {
			return cfg, fmt.Errorf("fleet: source %d's packet rate %v is not finite", i, s.PacketRate)
		}
	}
	// A non-finite coordinate has no distance to a receiver, and a NaN
	// accuracy fails every draw's comparison, so no packet would miss.
	for i, t := range cfg.Tags {
		if !finite(t.X) || !finite(t.Y) {
			return cfg, fmt.Errorf("fleet: tag %d is at (%v, %v), not a finite point", i, t.X, t.Y)
		}
		for p, a := range t.IdentAccuracy {
			if math.IsNaN(a) {
				return cfg, fmt.Errorf("fleet: tag %d's %v identification accuracy is NaN", i, p)
			}
		}
	}
	for i, r := range cfg.Receivers {
		if !finite(r.X) || !finite(r.Y) {
			return cfg, fmt.Errorf("fleet: receiver %d is at (%v, %v), not a finite point", i, r.X, r.Y)
		}
	}
	if cfg.Span <= 0 {
		cfg.Span = 10 * time.Second
	}
	if cfg.BucketMS <= 0 {
		cfg.BucketMS = 500
	}
	bucketDur := time.Duration(cfg.BucketMS) * time.Millisecond
	if bucketDur <= 0 || bucketDur/time.Millisecond != time.Duration(cfg.BucketMS) {
		return cfg, fmt.Errorf("fleet: bucket length %d ms overflows time.Duration", cfg.BucketMS)
	}
	if cfg.Channel == nil {
		cfg.Channel = channel.NewLoS()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if math.IsNaN(cfg.CaptureDB) {
		return cfg, fmt.Errorf("fleet: capture margin is NaN")
	}
	if cfg.CaptureDB <= 0 {
		cfg.CaptureDB = 10
	}
	if cfg.ConcurrentOFDM == 0 {
		cfg.ConcurrentOFDM = ofdm.MaxSubcarrierGroups
	}
	switch cfg.Baseline {
	case BaselineMultiscatter, BaselineDoubleDecker:
	default:
		return cfg, fmt.Errorf("fleet: unknown baseline %q", cfg.Baseline)
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
	return cfg, nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// fleetRun is one run's state between its phases: the shared timeline
// and its packet sets, and the tags in two partitions, by shard for
// identify and downlink and by receiver for contention. newRun writes
// all of it but the tags' working sets and partial results, which the
// phases fill in.
type fleetRun struct {
	cfg       Config
	receivers []ReceiverSpec
	bucketDur time.Duration

	events         []excite.Event
	exciteCollided int
	// clean holds the packets no other source overlaps on air, byProto
	// each protocol's packets and bySource each source's (nil for a
	// protocol or source the timeline lacks). proto is each packet's
	// protocol, padded to whole words, bucket its throughput-timeline
	// bucket, and wordBucket the bucket of each word's 64 packets, or -1
	// where they span two.
	clean      packetSet
	byProto    [protocolSlots]packetSet
	bySource   []packetSet
	proto      []uint8
	bucket     []int
	wordBucket []int
	// sampled holds the packets the flight recorder traces; nil when
	// tracing is off.
	sampled packetSet

	stats     CacheStats
	tags      []*tagRun
	shardTags [][]*tagRun
	// shardBuckets holds, per shard, the tag bits its tags delivered per
	// throughput-timeline bucket.
	shardBuckets [][]int
	// byRx lists the tags by receiver, each receiver's in ascending ID:
	// receiver r's are byRx[rxStart[r]:rxStart[r+1]].
	byRx    []*tagRun
	rxStart []int
}

// nearMargin is the relative margin over the least squared distance
// within which nearestReceiver compares receivers by math.Hypot. A normal,
// finite squared distance and Hypot are each within a few ulps of the
// exact distance (squared), so a receiver whose square exceeds the least
// by this much is farther by Hypot too.
const nearMargin = 1e-9

// nearestReceiver returns the receiver nearest (x, y) and its distance,
// exactly as a scan keeping the first receiver of least
// math.Hypot(x-r.X, y-r.Y) returns them (receiver 0 at +Inf when every
// distance is +Inf). It ranks the receivers by squared distance and calls
// Hypot, in receiver order, only for those whose square is within
// nearMargin of the least, taken as no less than the least normal float.
// So zero and subnormal squares, which underflow, always go to Hypot.
// Squares that overflow to +Inf do whenever one of them can be nearest:
// then the least square is within nearMargin of the largest float, and
// the limit overflows too. sq is scratch of len(rx).
func nearestReceiver(x, y float64, rx []ReceiverSpec, sq []float64) (int, float64) {
	least := math.Inf(1)
	for i, r := range rx {
		dx, dy := x-r.X, y-r.Y
		sq[i] = dx*dx + dy*dy
		least = min(least, sq[i])
	}
	limit := max(least, 0x1p-1022) * (1 + nearMargin)
	best, dist := 0, math.Inf(1)
	for i, s := range sq {
		if s <= limit {
			if d := math.Hypot(x-rx[i].X, y-rx[i].Y); d < dist {
				best, dist = i, d
			}
		}
	}
	return best, dist
}

// newRun builds the timeline (timed as fleet.timeline) and prefills the
// tags (fleet.prefill) of a defaulted cfg.
func newRun(cfg Config) (*fleetRun, error) {
	fr := &fleetRun{cfg: cfg, receivers: cfg.Receivers,
		bucketDur: time.Duration(cfg.BucketMS) * time.Millisecond}
	if len(fr.receivers) == 0 {
		var cx, cy float64
		for _, t := range cfg.Tags {
			cx += t.X
			cy += t.Y
		}
		n := float64(len(cfg.Tags))
		fr.receivers = []ReceiverSpec{{X: cx / n, Y: cy / n}}
	}

	// The excitation timeline and its packet sets are properties of the
	// air, identical for every tag, so they are computed once and shared
	// read-only across the pool.
	tTimeline := time.Now()
	events := excite.Timeline(cfg.Sources, cfg.Span, sim.SeedRNG(cfg.Seed, sim.StreamFleetTimeline))
	if cfg.MaxEvents > 0 && len(events) > cfg.MaxEvents {
		cfg.Obs.Stage("fleet.timeline").ObserveSince(tTimeline)
		return nil, fmt.Errorf("fleet: timeline has %d packets, budget %d: %w",
			len(events), cfg.MaxEvents, ErrBudget)
	}
	fr.events = events
	fr.clean = newPacketSet(len(events))
	fr.bySource = make([]packetSet, len(cfg.Sources))
	fr.proto = make([]uint8, 64*len(fr.clean))
	fr.bucket = make([]int, len(events))
	for i, c := range excite.CollisionFlags(events) {
		e := events[i]
		if fr.byProto[e.Protocol] == nil {
			fr.byProto[e.Protocol] = newPacketSet(len(events))
		}
		fr.byProto[e.Protocol].set(i)
		if fr.bySource[e.Source] == nil {
			fr.bySource[e.Source] = newPacketSet(len(events))
		}
		fr.bySource[e.Source].set(i)
		fr.proto[i] = uint8(e.Protocol)
		if c {
			fr.exciteCollided++
		} else {
			fr.clean.set(i)
		}
		fr.bucket[i] = int(e.Start / fr.bucketDur)
	}
	fr.wordBucket = make([]int, len(fr.clean))
	for w := range fr.wordBucket {
		word := fr.bucket[w*64 : min(w*64+64, len(events))]
		fr.wordBucket[w] = word[0]
		for _, b := range word {
			if b != word[0] {
				fr.wordBucket[w] = -1
				break
			}
		}
	}
	cfg.Obs.Stage("fleet.timeline").ObserveSince(tTimeline)

	// Prefill resolves everything static before the parallel phases:
	// per-tag state (receiver assignment, link-table bucket, profile,
	// empty packet sets), the calibrated-link table, one wake schedule
	// per energy profile, and the tags' order by receiver. Tag
	// placements, sources and the timeline are fixed, so the parallel
	// phases run on plain array and bit reads.
	tPrefill := time.Now()
	table := newLinkTable(cfg.Channel, cfg.Seed, cfg.Phase, cfg.Baseline == BaselineDoubleDecker)
	sets := newPacketSets(3*len(cfg.Tags), len(events))
	fr.tags = make([]*tagRun, len(cfg.Tags))
	sq := make([]float64, len(fr.receivers))
	for i, spec := range cfg.Tags {
		t := &tagRun{spec: spec, id: i, mode: spec.Mode,
			responses: sets[3*i], lost: sets[3*i+1], joint: sets[3*i+2]}
		if t.mode == 0 {
			t.mode = overlay.Mode1
		}
		t.rx, t.dist = nearestReceiver(spec.X, spec.Y, fr.receivers, sq)
		t.bucket = table.bucketOf(t.dist)
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
			t.missCut[p] = sim.Cut(a)
		}
		fr.tags[i] = t
	}
	fr.stats = table.prefill(fr.tags, cfg.Sources)
	// Contention ranks tags by RSSI, which a NaN channel parameter
	// would leave without an order.
	for _, t := range fr.tags {
		for _, e := range &t.linked {
			if math.IsNaN(e.RSSIdBm) {
				return nil, fmt.Errorf("fleet: tag %d's link RSSI is NaN; check the channel model", t.id)
			}
		}
	}
	buildWakeSchedules(fr.tags, events, cfg.Seed)
	// A counting sort by receiver; tags enter in ID order, so each
	// receiver's stay in ascending ID.
	fr.rxStart = make([]int, len(fr.receivers)+1)
	for _, t := range fr.tags {
		fr.rxStart[t.rx+1]++
	}
	for r := range fr.receivers {
		fr.rxStart[r+1] += fr.rxStart[r]
	}
	next := append([]int(nil), fr.rxStart[:len(fr.receivers)]...)
	fr.byRx = make([]*tagRun, len(fr.tags))
	for _, t := range fr.tags {
		fr.byRx[next[t.rx]] = t
		next[t.rx]++
	}
	cfg.Obs.Stage("fleet.prefill").ObserveSince(tPrefill)

	// Shard the fleet: a fixed partition (independent of Workers) so the
	// per-shard RNG streams, and therefore the results, do not move when
	// the pool is resized.
	numShards := min(len(fr.tags), maxShards)
	fr.shardTags = make([][]*tagRun, numShards)
	for _, t := range fr.tags {
		s := t.id % numShards
		fr.shardTags[s] = append(fr.shardTags[s], t)
	}
	numBuckets := int(cfg.Span/fr.bucketDur) + 1
	fr.shardBuckets = make([][]int, numShards)
	for s := range fr.shardBuckets {
		fr.shardBuckets[s] = make([]int, numBuckets)
	}
	// The flight recorder shares the shard partition, so each shard's
	// ring is single-writer and the drained stream cannot depend on the
	// worker count (see internal/obs/ptrace).
	cfg.Trace.Configure(numShards)
	if mask := cfg.Trace.Mask(len(events)); mask != nil {
		fr.sampled = newPacketSet(len(events))
		for i, traced := range mask {
			if traced {
				fr.sampled.set(i)
			}
		}
	}
	return fr, nil
}

// timedShard wraps a tag-shard body so each execution lands in the
// fleet.shard_ns histogram and the fleet.shard_runs counter. The
// instruments are atomic, so concurrent shards record without locks.
func (fr *fleetRun) timedShard(fn func(int)) func(int) {
	h := fr.cfg.Obs.Histogram("fleet.shard_ns", obs.TimeBucketsNS())
	runs := fr.cfg.Obs.Counter("fleet.shard_runs")
	return func(shard int) {
		t0 := time.Now()
		fn(shard)
		h.Observe(float64(time.Since(t0)))
		runs.Inc()
	}
}

// identify classifies, on the tag shards, every packet for every tag,
// 64 timeline packets at a time: asleep, air-collided, misidentified,
// unsupported, or a response. Only the packets that draw (awake and
// clean) take an identification draw, one block of draws per word, in
// ascending packet order, which the shard's stream follows; a draw
// misses its packet when it exceeds the tag's cut for the packet's
// protocol, and the outcomes are counted by popcount over the protocol
// sets. The traced packets are visited in ascending order too, and
// untraced ones emit nothing, so each shard's ring receives the same
// events in the same order as a visit of every packet would give it.
func (fr *fleetRun) identify(ctx context.Context) {
	events := fr.events
	runShards(ctx, fr.cfg.Pool, len(fr.shardTags), fr.timedShard(func(shard int) {
		rng := sim.SeedSource(fr.cfg.Seed+int64(shard), sim.StreamFleetShard)
		tr := fr.cfg.Trace.Shard(shard)
		var draws [64]int64
		for _, t := range fr.shardTags[shard] {
			modeStr := ""
			if tr != nil {
				modeStr = t.mode.String() // hoisted: Mode.String formats
			}
			for w, clean := range fr.clean {
				awake := ^uint64(0)
				if t.wake != nil {
					awake = t.wake.awake[w]
				}
				var supported uint64
				for p, set := range &fr.byProto {
					if set != nil && t.supported[p] {
						supported |= set[w]
					}
				}
				drawn := clean & awake
				xs := draws[:bits.OnesCount64(drawn)]
				rng.Float64Ints(xs)
				proto := (*[64]uint8)(fr.proto[w*64:])
				// The k-th draw belongs to drawn's k-th packet. Draws and
				// cuts lie in [-1, 2⁶³), so the difference's sign bit is
				// set exactly when the draw exceeds the cut.
				var missed uint64
				m := drawn
				for _, x := range xs {
					i := bits.TrailingZeros64(m) & 63
					m &= m - 1
					missed |= uint64(t.missCut[proto[i]]-x) >> 63 << i
				}
				t.responses[w] = drawn &^ missed & supported
				fr.countIdentify(t, w, awake, drawn, missed, supported)
				if fr.sampled == nil {
					continue
				}
				for m := fr.sampled[w]; m != 0; m &= m - 1 {
					bit := m & -m
					i := w*64 + bits.TrailingZeros64(m)
					t.traceIdentify(tr, events[i], i, awake&bit != 0, clean&bit != 0, missed&bit != 0, modeStr)
				}
			}
		}
	}))
}

// countIdentify adds the identify outcomes of t's packets among the 64
// of word w to its counts.
func (fr *fleetRun) countIdentify(t *tagRun, w int, awake, drawn, missed, supported uint64) {
	for p, set := range &fr.byProto {
		if set == nil {
			continue
		}
		pw := set[w]
		t.counts[p][sim.TagAsleep] += bits.OnesCount64(pw &^ awake)
		t.counts[p][sim.Collided] += bits.OnesCount64(pw & awake &^ fr.clean[w])
		t.counts[p][sim.Misidentified] += bits.OnesCount64(pw & missed)
		t.counts[p][sim.Unsupported] += bits.OnesCount64(pw & drawn &^ missed &^ supported)
	}
}

// traceIdentify records a traced packet's events up to its identify
// verdict, and the overlay plan of a response.
func (t *tagRun) traceIdentify(tr *ptrace.ShardRecorder, e excite.Event, i int, awake, clean, missed bool, modeStr string) {
	ev := tr.Alloc()
	ev.TUS = int64(e.Start / time.Microsecond)
	ev.DurUS = int64(e.Duration / time.Microsecond)
	ev.Tag = int32(t.id)
	ev.Packet = int32(i)
	ev.Proto = e.Protocol.String()
	ev.Stage = ptrace.StageExcite
	if !clean {
		ev.Detail = "air-collided"
	}
	if t.wake != nil {
		if !awake {
			t.trace2(tr, e, i, ptrace.StageEnergy, "asleep", sim.TagAsleep)
			return
		}
		t.trace1(tr, e, i, ptrace.StageEnergy, "awake")
	}
	switch {
	case !clean:
		t.trace2(tr, e, i, ptrace.StageIdentify, "air-collision", sim.Collided)
	case missed:
		t.trace2(tr, e, i, ptrace.StageIdentify, "missed", sim.Misidentified)
	case !t.supported[e.Protocol]:
		t.trace2(tr, e, i, ptrace.StageIdentify, "ok", sim.Unsupported)
	default:
		t.trace1(tr, e, i, ptrace.StageIdentify, "ok")
		t.trace1(tr, e, i, ptrace.StagePlan, modeStr)
	}
}

// contend arbitrates cross-tag contention: two tags backscattering the
// same excitation packet toward the same receiver interfere, and the
// receiver captures the strongest only if it clears the capture margin.
// It runs on the pool in receiver groups, receiver r in task r mod
// tasks, and each task reuses one rank scratch across its receivers. A
// receiver's verdicts depend only on its own tags, so the grouping
// cannot change them.
func (fr *fleetRun) contend(ctx context.Context) {
	tasks := min(len(fr.receivers), fr.cfg.Pool.Size())
	// Each task's scratch fits its largest receiver: task t's share of
	// the arrays below starts start[t] tags in and spans
	// start[t+1]-start[t] tags, so all of it spans at most every tag.
	start := make([]int, tasks+1)
	for r := range fr.receivers {
		start[r%tasks+1] = max(start[r%tasks+1], fr.rxStart[r+1]-fr.rxStart[r])
	}
	for t := range tasks {
		start[t+1] += start[t]
	}
	orders := make([]rank, protocolSlots*start[tasks])
	words := make([]uint64, 3*start[tasks])
	runShards(ctx, fr.cfg.Pool, tasks, func(task int) {
		a, b := start[task], start[task+1]
		rk := newRanks(orders[protocolSlots*a:protocolSlots*b], words[3*a:3*b])
		for r := task; r < len(fr.receivers); r += tasks {
			if tags := fr.byRx[fr.rxStart[r]:fr.rxStart[r+1]]; len(tags) > 0 {
				fr.contendAt(&rk, tags)
			}
		}
	})
}

// rank is one tag's place in a receiver's RSSI order of one protocol.
type rank struct {
	// tag indexes the receiver's tags, and rssi is its RSSI under the
	// protocol.
	tag  int
	rssi float64
	// prefix is how many leading tags of the order capture a packet on
	// which this tag is the runner-up.
	prefix int
}

// ranks is a contention task's scratch, sized for the task's largest
// receiver and reused across its receivers.
type ranks struct {
	// order holds, per protocol, the receiver's tags that support it,
	// strongest first.
	order [protocolSlots][]rank
	// resp holds each tag's responses in the current word; seen1, at
	// position j of an order, the packets a tag before j responded to;
	// and over[m-3], the packets at least m tags responded to.
	resp, seen1, over []uint64
}

// newRanks cuts scratch for receivers of up to n tags from orders
// (protocolSlots·n ranks) and words (3n words).
func newRanks(orders []rank, words []uint64) ranks {
	var rk ranks
	n := len(words) / 3
	for p := range rk.order {
		rk.order[p] = orders[p*n : p*n : (p+1)*n]
	}
	rk.resp, rk.seen1, rk.over = words[:n], words[n:2*n], words[2*n:]
	return rk
}

// contendAt arbitrates one receiver's tags on the RSSI order of each
// protocol. Every tag's RSSI is fixed per protocol for the whole run, so
// a packet's best tag is the first of the order to respond and its
// runner-up the second: the same winner, ties to the lowest ID, that a
// merge of the responses in ID order with strict comparisons gives. A
// runner-up at position j loses to the tags of the order's first
// prefix positions by at least CaptureDB: floating-point subtraction
// rounds monotonically, so those tags form a prefix, and the prefix
// grows with j. The best tag captures a packet exactly when it
// responded within its runner-up's prefix.
func (fr *fleetRun) contendAt(rk *ranks, tags []*tagRun) {
	capture := fr.cfg.CaptureDB
	for p, set := range &fr.byProto {
		order := rk.order[p][:0]
		if set != nil {
			for i, t := range tags {
				if t.supported[p] {
					order = append(order, rank{tag: i, rssi: t.linked[p].RSSIdBm})
				}
			}
			slices.SortFunc(order, func(a, b rank) int {
				return cmp.Or(cmp.Compare(b.rssi, a.rssi), a.tag-b.tag)
			})
			// The prefix of position j never passes j: the best tag of
			// a packet always precedes its runner-up, so a longer prefix
			// would capture the same packets.
			k := 0
			for j := range order {
				for k < j && !(order[k].rssi-order[j].rssi < capture) {
					k++
				}
				order[j].prefix = k
			}
		}
		rk.order[p] = order
	}

	for w := range fr.clean {
		var touched uint64
		for i, t := range tags {
			rk.resp[i] = t.responses[w]
			touched |= rk.resp[i]
		}
		if touched == 0 {
			continue
		}
		for p, set := range &fr.byProto {
			if set != nil && set[w]&touched != 0 {
				fr.rankWord(rk, tags, w, radio.Protocol(p), set[w])
			}
		}
		if fr.sampled != nil {
			fr.traceContention(rk, tags, w, fr.sampled[w]&touched)
		}
	}
}

// rankWord writes the lost and joint bits of the receiver's tags among
// pw, word w's packets of protocol p. A first walk down p's order finds
// the collided packets (seen2), the captured ones, and, where 802.11n's
// joint limit is below the order's length, the packets too crowded to
// decode jointly; a second walk marks each responder's verdicts.
func (fr *fleetRun) rankWord(rk *ranks, tags []*tagRun, w int, p radio.Protocol, pw uint64) {
	order := rk.order[p]
	var over []uint64
	jointable := p == radio.Protocol80211n && fr.cfg.ConcurrentOFDM > 1
	if jointable && fr.cfg.ConcurrentOFDM < len(order) {
		over = rk.over[:fr.cfg.ConcurrentOFDM-1]
		clear(over)
	}
	var seen1, seen2, captured uint64
	for j, r := range order {
		x := rk.resp[r.tag] & pw
		rk.seen1[j] = seen1
		// Where this tag is the runner-up, the best tag captures if it
		// is within this tag's prefix.
		captured |= x & seen1 &^ seen2 & rk.seen1[r.prefix]
		if over != nil {
			for m := len(over) - 1; m > 0; m-- {
				over[m] |= over[m-1] & x
			}
			over[0] |= seen2 & x
		}
		seen2 |= seen1 & x
		seen1 |= x
	}
	if seen2 == 0 {
		return
	}
	// A collision of up to ConcurrentOFDM tags on an 802.11n packet is
	// not arbitrated by capture: every participant rides its own
	// subcarrier group (ofdm.AssignConcurrent) and the receiver separates
	// them jointly. Any other collision costs every responder the packet
	// but a best tag that captured it.
	var joint uint64
	if jointable {
		joint = seen2
		if over != nil {
			joint &^= over[len(over)-1]
		}
	}
	contested := seen2 &^ joint
	for j, r := range order {
		x := rk.resp[r.tag] & seen2
		if x == 0 {
			continue
		}
		t := tags[r.tag]
		t.lost[w] |= x & contested &^ (captured &^ rk.seen1[j])
		t.joint[w] |= x & joint
	}
}

// traceContention appends, for each of the traced packets among word w
// with a response at the receiver, how many of its tags responded and
// the best one's RSSI margin over the runner-up to every responder's
// traced contentions. The packets go in ascending order, so each tag's
// stay in packet order.
func (fr *fleetRun) traceContention(rk *ranks, tags []*tagRun, w int, sampled uint64) {
	for m := sampled; m != 0; m &= m - 1 {
		bit := m & -m
		var c tracedContention
		best, second := 0.0, math.Inf(-1)
		for _, r := range rk.order[fr.events[w*64+bits.TrailingZeros64(m)].Protocol] {
			if rk.resp[r.tag]&bit == 0 {
				continue
			}
			if c.count++; c.count == 1 {
				best = r.rssi
			} else if c.count == 2 {
				second = r.rssi
			}
		}
		c.marginDB = best - second
		for i, t := range tags {
			if rk.resp[i]&bit != 0 {
				t.traced = append(t.traced, c)
			}
		}
	}
}

// downlink decides, on the tag shards, the fate of every response, 64
// timeline packets at a time: lost to another tag (contention's lost
// bits), out of the link's range, lost to the link's packet error rate,
// or delivered, jointly decoded or not. Only the PER draws and the
// traced responses visit packets one by one, in ascending order: the
// shard's PER draws follow that order, and the golden traces pin it.
func (fr *fleetRun) downlink(ctx context.Context) {
	cfg, events := fr.cfg, fr.events
	runShards(ctx, cfg.Pool, len(fr.shardTags), fr.timedShard(func(shard int) {
		rng := sim.SeedSource(cfg.Seed+int64(shard), sim.StreamFleetDownlink)
		tr := cfg.Trace.Shard(shard)
		buckets := fr.shardBuckets[shard]
		for _, t := range fr.shardTags[shard] {
			traced := t.traced
			for w, resp := range t.responses {
				if resp == 0 {
					continue
				}
				lost, joint := t.lost[w], t.joint[w]
				if DivergeHook != nil {
					for m := resp; m != 0; m &= m - 1 {
						if DivergeHook(cfg.Workers, t.id, w*64+bits.TrailingZeros64(m)) {
							lost, joint = lost|m&-m, joint&^(m&-m)
						}
					}
				}
				// inRange holds the packets whose protocol the tag's link
				// reaches, erring those it reaches with PER > 0.
				var inRange, erring uint64
				for p, set := range &fr.byProto {
					if set != nil && t.linked[p].InRange {
						inRange |= set[w]
						if t.linked[p].PERTag > 0 {
							erring |= set[w]
						}
					}
				}
				survived := resp &^ lost
				delivered := survived & inRange
				for m := delivered & erring; m != 0; m &= m - 1 {
					if rng.Float64() < t.linked[fr.proto[w*64+bits.TrailingZeros64(m)]].PERTag {
						delivered &^= m & -m
					}
				}
				fr.countDownlink(t, buckets, w, lost, joint, survived, delivered)
				if fr.sampled == nil {
					continue
				}
				for m := resp & fr.sampled[w]; m != 0; m &= m - 1 {
					bit := m & -m
					i := w*64 + bits.TrailingZeros64(m)
					t.traceDownlink(tr, events[i], i, traced[0], lost&bit != 0, joint&bit != 0, delivered&bit != 0)
					traced = traced[1:]
				}
			}
		}
	}))
}

// countDownlink adds the outcomes of t's responses among the 64 packets
// of word w to its counts, and the delivered packets' bits to its
// protocol totals and to its shard's bucket totals.
func (fr *fleetRun) countDownlink(t *tagRun, buckets []int, w int, lost, joint, survived, delivered uint64) {
	for p, set := range &fr.byProto {
		if set == nil {
			continue
		}
		pw := set[w]
		t.counts[p][sim.CrossCollided] += bits.OnesCount64(lost & pw)
		t.counts[p][sim.LostDownlink] += bits.OnesCount64(survived &^ delivered & pw)
		t.counts[p][sim.DecodedConcurrent] += bits.OnesCount64(delivered & joint & pw)
		t.counts[p][sim.Delivered] += bits.OnesCount64(delivered &^ joint & pw)
	}
	if delivered == 0 {
		return
	}
	wordBits := 0
	for s, set := range fr.bySource {
		if set == nil {
			continue
		}
		n := bits.OnesCount64(delivered&set[w]) * t.bits[s]
		t.tagBits[fr.cfg.Sources[s].Protocol] += n
		wordBits += n
	}
	if b := fr.wordBucket[w]; b >= 0 {
		if b < len(buckets) {
			buckets[b] += wordBits
		}
		return
	}
	for m := delivered; m != 0; m &= m - 1 {
		i := w*64 + bits.TrailingZeros64(m)
		if b := fr.bucket[i]; b < len(buckets) {
			buckets[b] += t.bits[fr.events[i].Source]
		}
	}
}

// traceDownlink records a traced response's channel and demod events
// from the verdicts downlink took for it.
func (t *tagRun) traceDownlink(tr *ptrace.ShardRecorder, e excite.Event, i int, c tracedContention, lost, joint, delivered bool) {
	if lost {
		t.trace2(tr, e, i, ptrace.StageChannel, detailN("cross-collided n=", c.count), sim.CrossCollided)
		return
	}
	switch {
	case joint:
		t.trace1(tr, e, i, ptrace.StageChannel, detailN("joint-ofdm n=", c.count))
	case c.count > 1:
		t.trace1(tr, e, i, ptrace.StageChannel, detailCaptured(c.count, c.marginDB))
	default:
		t.trace1(tr, e, i, ptrace.StageChannel, "clear")
	}
	entry := &t.linked[e.Protocol]
	switch {
	case !entry.InRange:
		t.trace2(tr, e, i, ptrace.StageDemod, "out-of-range", sim.LostDownlink)
	case !delivered:
		t.trace2(tr, e, i, ptrace.StageDemod, detailPERLoss(entry.PERTag), sim.LostDownlink)
	case joint:
		t.trace2(tr, e, i, ptrace.StageDemod,
			detailDelivered(entry.RSSIdBm, t.bits[e.Source]), sim.DecodedConcurrent)
	default:
		t.trace2(tr, e, i, ptrace.StageDemod,
			detailDelivered(entry.RSSIdBm, t.bits[e.Source]), sim.Delivered)
	}
}

// runShards executes fn(shard) for every shard on pool. Each shard's
// work is self-contained, so scheduling order cannot influence results.
// Once ctx is cancelled the remaining shards are skipped; the caller
// detects the abort via ctx.Err.
func runShards(ctx context.Context, pool *Pool, shards int, fn func(shard int)) {
	run := fn
	if ctx.Done() != nil {
		run = func(s int) {
			if ctx.Err() != nil {
				return
			}
			fn(s)
		}
	}
	pool.Run(shards, run)
}
