package fleet

import (
	"time"

	"multiscatter/internal/baseline"
	"multiscatter/internal/channel"
	"multiscatter/internal/core"
	"multiscatter/internal/excite"
	"multiscatter/internal/overlay"
	"multiscatter/internal/radio"
	"multiscatter/internal/sim"
)

// distanceBucketM is the calibrated-link table resolution in metres.
const distanceBucketM = 0.25

// On phase-aware runs the coherent receiver re-estimates the channel
// from pilots every estimateHorizon, and a fresh estimate's phase-aligned
// combining gains it coherentGainDB of SNR.
const (
	estimateHorizon = time.Millisecond
	coherentGainDB  = 1
)

// linkKey identifies one calibrated-link working point: a protocol heard
// over a quantized tag→receiver distance under one overlay mode. Tags
// sharing a distance bucket share the entry, so the per-packet hot path
// never recomputes the RSSI/PER chain (log-distance path loss, Q-function
// BER, PER products) that dominates a naive per-packet evaluation.
type linkKey struct {
	protocol radio.Protocol
	bucket   int
	mode     overlay.Mode
}

// linkEntry is one calibrated working point.
type linkEntry struct {
	// RSSIdBm of the backscattered signal at the receiver.
	RSSIdBm float64
	// InRange reports whether the receiver still synchronizes.
	InRange bool
	// PERTag is the tag-data packet error rate under the protocol's
	// default traffic shape and the entry's mode. On phase-aware runs
	// it carries the coherent receiver's drift-tracking penalty (and,
	// under the Double-decker baseline, the residual self-interference
	// leakage); RSSIdBm and InRange stay on the magnitude surface.
	PERTag float64
	// PhaseRad/DriftHz are the link's complex-channel initial phase and
	// residual drift rate, drawn from StreamChannelPhase; zero when the
	// phase-aware channel is disabled.
	PhaseRad float64
	DriftHz  float64
}

// CacheStats describes the run's calibrated-link table and the hot-path
// traffic it absorbed. Entries counts distinct (protocol, bucket, mode)
// working points; BitsEntries counts packet capacities, one per distinct
// (protocol, packet duration) of the configured sources per overlay mode
// in use. LinkLookups counts working-point reads: one per contention
// response plus one per downlink decision. BitsLookups counts capacity
// reads, one per delivered packet. The table is complete before the
// parallel phases start, so both Misses fields are always zero; they
// keep the result encoding stable.
type CacheStats struct {
	Entries     int   `json:"entries"`
	BitsEntries int   `json:"bits_entries"`
	LinkLookups int64 `json:"link_lookups"`
	LinkMisses  int64 `json:"link_misses"`
	BitsLookups int64 `json:"bits_lookups"`
	BitsMisses  int64 `json:"bits_misses"`
}

// linkTable builds the calibrated-link table of one fleet run. Every
// entry is a pure function of (seed, key): shadowing draws come from a
// per-key RNG (sim.SeedRNGAt over StreamFleetShadow), so the table does
// not depend on build order. prefill resolves it into per-tag arrays
// before the worker pool starts, and the parallel phases only read those.
type linkTable struct {
	seed  int64
	links [protocolSlots]*core.Link
	// phase enables the phase-aware complex channel (nil = magnitude
	// only); dd applies the Double-decker single-receiver model (tag
	// capacity scaling + self-interference penalty).
	phase *PhaseConfig
	dd    bool
}

func newLinkTable(ch *channel.Model, seed int64, phase *PhaseConfig, dd bool) *linkTable {
	c := &linkTable{seed: seed, phase: phase, dd: dd}
	for _, p := range radio.Protocols {
		c.links[p] = core.NewLink(p, ch)
	}
	return c
}

// bucketOf quantizes a distance to the table resolution. Bucket 0 covers
// tags co-located with their receiver (d < distanceBucketM/2).
func (c *linkTable) bucketOf(d float64) int {
	b := int(d/distanceBucketM + 0.5)
	if b < 0 {
		b = 0
	}
	return b
}

// distanceOf returns the representative distance of a bucket, floored at
// 0.1 m to match Model.PathLossDB's near-field clamp — so bucket 0 is
// evaluated at the clamp distance instead of overstating path loss at a
// full bucket width.
func (c *linkTable) distanceOf(bucket int) float64 {
	d := float64(bucket) * distanceBucketM
	if d < 0.1 {
		d = 0.1
	}
	return d
}

// site folds a link key into the SeedRNGAt site word. Mode and protocol
// are tiny enums; the bucket gets the remaining bits.
func (k linkKey) site() uint64 {
	return uint64(k.bucket)<<16 | uint64(k.mode)<<8 | uint64(k.protocol)
}

func (c *linkTable) compute(k linkKey) linkEntry {
	l := c.links[k.protocol]
	d := c.distanceOf(k.bucket)
	shadow := l.ShadowDB(sim.SeedRNGAt(c.seed, sim.StreamFleetShadow, k.site()))
	e := linkEntry{RSSIdBm: l.RSSIAt(d, shadow), InRange: l.InRangeAt(d, shadow), PERTag: 1}
	perShadow := shadow
	if c.phase != nil {
		// One RNG per site, keyed exactly like StreamFleetShadow, so the
		// entry stays a pure function of (seed, key) at any worker count.
		drift := channel.NewPhaseDrift(
			sim.SeedRNGAt(c.seed, sim.StreamChannelPhase, k.site()), c.phase.MaxDriftHz)
		e.PhaseRad = drift.Phi0Rad
		e.DriftHz = drift.RateHz
		// The coherent receiver decides the PER at the phase-aware
		// working point: tracking loss over the estimate horizon, minus
		// the combining gain of a fresh estimate, plus (Double-decker
		// only) the residual direct-path leakage — all folded in as
		// extra shadowing loss. RSSIdBm/InRange above are untouched:
		// signal strength is a magnitude, only decoding quality moves.
		pen := channel.Estimator{}.TrackingPenaltyDB(drift.RateHz, estimateHorizon) - coherentGainDB
		if c.dd {
			pen += baseline.DoubleDeckerLeakPenaltyDB(baseline.DoubleDeckerConfig{})
		}
		perShadow += pen
	}
	if e.InRange {
		_, e.PERTag = l.PERsAt(d, perShadow, k.mode, overlay.DefaultTraffic(k.protocol))
	}
	return e
}

// scaleTagBits applies the Double-decker capacity budget to a packet's
// tag-bit count: each tag bit spans DoubleDeckerSpread γ-groups and a
// DoubleDeckerPilotFraction of groups carries pilots instead of data.
// Identity on non-Double-decker runs.
func (c *linkTable) scaleTagBits(tag int) int {
	if !c.dd {
		return tag
	}
	return int(float64(tag) * (1 - baseline.DoubleDeckerPilotFraction) / baseline.DoubleDeckerSpread)
}

// prefill resolves the table into the tags: each distinct working point
// is computed once and copied into every tag that uses it
// (tagRun.linked), and each overlay mode in use gets one tag-bit
// capacity per excitation source, shared by the tags of that mode
// (tagRun.bits, indexed by excite.Event.Source — every event of a source
// lasts the source's PacketDuration). It returns the table shape; reduce
// adds the lookup traffic.
func (c *linkTable) prefill(tags []*tagRun, sources []excite.Source) CacheStats {
	entries := map[linkKey]linkEntry{}
	bitsByMode := map[overlay.Mode][]int{}
	for _, t := range tags {
		for _, p := range radio.Protocols {
			k := linkKey{p, t.bucket, t.mode}
			e, ok := entries[k]
			if !ok {
				e = c.compute(k)
				entries[k] = e
			}
			t.linked[p] = e
		}
		bits, ok := bitsByMode[t.mode]
		if !ok {
			bits = make([]int, len(sources))
			for i, s := range sources {
				_, tag := sim.PacketBits(s.Protocol, s.PacketDuration, t.mode)
				bits[i] = c.scaleTagBits(tag)
			}
			bitsByMode[t.mode] = bits
		}
		t.bits = bits
	}
	type shape struct {
		protocol radio.Protocol
		duration time.Duration
	}
	shapes := map[shape]bool{}
	for _, s := range sources {
		shapes[shape{s.Protocol, s.PacketDuration}] = true
	}
	return CacheStats{Entries: len(entries), BitsEntries: len(shapes) * len(bitsByMode)}
}
