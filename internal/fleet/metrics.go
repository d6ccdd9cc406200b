package fleet

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"multiscatter/internal/excite"
	"multiscatter/internal/radio"
	"multiscatter/internal/sim"
)

// OutcomeCounts is a per-outcome histogram that marshals to JSON with
// human-readable outcome names.
type OutcomeCounts map[sim.Outcome]int

// MarshalJSON renders {"delivered": 12, "collided": 3, ...}.
func (o OutcomeCounts) MarshalJSON() ([]byte, error) {
	named := make(map[string]int, len(o))
	for k, v := range o {
		named[k.String()] = v
	}
	return json.Marshal(named)
}

// TagResult is one tag's aggregated outcome.
type TagResult struct {
	// ID is the tag's index in Config.Tags.
	ID int `json:"id"`
	// X, Y floor-plan position in metres.
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// Receiver index the tag reports to, and the distance to it.
	Receiver  int     `json:"receiver"`
	DistanceM float64 `json:"distance_m"`
	// RSSIdBm is the per-protocol backscatter signal strength at the
	// tag's receiver, shadowing included — the calibrated working point its
	// downlink outcomes were decided at. Keyed by protocol name.
	RSSIdBm map[string]float64 `json:"rssi_dbm"`
	// PhaseRad/DriftHz are the per-protocol complex-channel initial
	// phase and residual drift rate of the tag's link, keyed by protocol
	// name. Present only on phase-aware runs (Config.Phase non-nil), so
	// magnitude-only results marshal byte-identically to before.
	PhaseRad map[string]float64 `json:"phase_rad,omitempty"`
	DriftHz  map[string]float64 `json:"drift_hz,omitempty"`
	// Outcomes histogram over all packets the tag saw.
	Outcomes OutcomeCounts `json:"outcomes"`
	// PerProtocol splits Outcomes by excitation protocol (keyed by
	// protocol name; only protocols with traffic appear) — the
	// granularity the replay journal records.
	PerProtocol map[string]OutcomeCounts `json:"per_protocol,omitempty"`
	// TagBits delivered and the resulting rate.
	TagBits int     `json:"tag_bits"`
	TagKbps float64 `json:"tag_kbps"`
	// EnergyRounds counts harvester discharge rounds (0 when unlimited).
	EnergyRounds int `json:"energy_rounds,omitempty"`
}

// ProtocolTotals aggregates one protocol across the fleet.
type ProtocolTotals struct {
	Protocol radio.Protocol `json:"-"`
	// Name of the protocol, for JSON and tables.
	Name string `json:"protocol"`
	// Packets is the number of per-tag packet opportunities (timeline
	// packets of the protocol × tags).
	Packets int `json:"packets"`
	// Outcomes histogram across all tags.
	Outcomes OutcomeCounts `json:"outcomes"`
	// TagBits delivered fleet-wide and the resulting rate.
	TagBits int     `json:"tag_bits"`
	TagKbps float64 `json:"tag_kbps"`
}

// Result is the aggregated outcome of one fleet run. For a fixed Config
// (including Seed) it is identical byte-for-byte regardless of Workers or
// GOMAXPROCS.
type Result struct {
	// Span simulated and the timeline bucket width.
	Span      time.Duration `json:"span_ns"`
	BucketDur time.Duration `json:"bucket_ns"`
	// Events on the shared excitation timeline, and how many of them
	// were corrupted at the tags by excitation-level collisions.
	Events         int `json:"events"`
	ExciteCollided int `json:"excite_collided"`
	// NumTags and NumReceivers of the deployment.
	NumTags      int `json:"num_tags"`
	NumReceivers int `json:"num_receivers"`
	// Tags in ID order.
	Tags []TagResult `json:"tags"`
	// PerProtocol totals in ordered-matching order.
	PerProtocol []ProtocolTotals `json:"per_protocol"`
	// Outcomes is the fleet-wide histogram.
	Outcomes OutcomeCounts `json:"outcomes"`
	// FleetTagKbps is the aggregate delivered tag-data rate; MeanTagKbps
	// the per-tag average; Fairness the Jain index over per-tag rates.
	FleetTagKbps float64 `json:"fleet_tag_kbps"`
	MeanTagKbps  float64 `json:"mean_tag_kbps"`
	Fairness     float64 `json:"fairness"`
	// Buckets is the fleet-throughput timeline (kbps per bucket).
	Buckets []float64 `json:"buckets_kbps"`
	// Cache reports the calibrated-link table's size and read traffic.
	Cache CacheStats `json:"cache"`
	// PhaseAware records whether the run used the phase-aware complex
	// channel; Baseline names the receiver decoding architecture when it
	// is not the default multiscatter receiver. Both are omitted on
	// default runs so existing result encodings are unchanged.
	PhaseAware bool   `json:"phase_aware,omitempty"`
	Baseline   string `json:"baseline,omitempty"`
}

// outcomesOrder lists outcomes in display order.
var outcomesOrder = []sim.Outcome{
	sim.Delivered, sim.DecodedConcurrent, sim.CrossCollided, sim.Collided,
	sim.Misidentified, sim.Unsupported, sim.TagAsleep, sim.LostDownlink,
}

// reduce folds per-tag partials into the Result, iterating tags in ID
// order so floating-point accumulation is deterministic. Every tag sees
// the whole timeline, so per-protocol packet opportunities are the
// timeline's protocol counts times the tag count. table is the
// link-table shape from prefill; its lookup traffic is derived here from
// the outcome totals.
func reduce(cfg Config, receivers []ReceiverSpec, tags []*tagRun, events []excite.Event, exciteCollided int, bucketDur time.Duration, table CacheStats) (*Result, error) {
	res := &Result{
		Span:           cfg.Span,
		BucketDur:      bucketDur,
		Events:         len(events),
		ExciteCollided: exciteCollided,
		NumTags:        len(tags),
		NumReceivers:   len(receivers),
		Outcomes:       OutcomeCounts{},
		Buckets:        make([]float64, int(cfg.Span/bucketDur)+1),
		PhaseAware:     cfg.Phase != nil,
		Baseline:       string(cfg.Baseline),
	}
	var timelinePackets [protocolSlots]int
	for _, e := range events {
		timelinePackets[e.Protocol]++
	}
	perProto := make([]ProtocolTotals, 0, len(radio.Protocols))
	protoIdx := map[radio.Protocol]int{}
	for i, p := range radio.Protocols {
		perProto = append(perProto, ProtocolTotals{Protocol: p, Name: p.String(),
			Packets: timelinePackets[p] * len(tags), Outcomes: OutcomeCounts{}})
		protoIdx[p] = i
	}
	spanSec := cfg.Span.Seconds()
	for _, t := range tags {
		tr := TagResult{
			ID:          t.id,
			X:           t.spec.X,
			Y:           t.spec.Y,
			Receiver:    t.rx,
			DistanceM:   t.dist,
			RSSIdBm:     map[string]float64{},
			Outcomes:    OutcomeCounts{},
			PerProtocol: map[string]OutcomeCounts{},
		}
		if t.wake != nil {
			tr.EnergyRounds = t.wake.rounds
		}
		for _, p := range radio.Protocols {
			tr.RSSIdBm[p.String()] = t.linked[p].RSSIdBm
		}
		if cfg.Phase != nil {
			tr.PhaseRad = map[string]float64{}
			tr.DriftHz = map[string]float64{}
			for _, p := range radio.Protocols {
				e := t.linked[p]
				tr.PhaseRad[p.String()] = e.PhaseRad
				tr.DriftHz[p.String()] = e.DriftHz
			}
		}
		for _, p := range radio.Protocols {
			pt := &perProto[protoIdx[p]]
			pt.TagBits += t.tagBits[p]
			tr.TagBits += t.tagBits[p]
			for o := 0; o < outcomeSlots; o++ {
				n := t.counts[p][o]
				if n == 0 {
					continue
				}
				tr.Outcomes[sim.Outcome(o)] += n
				pt.Outcomes[sim.Outcome(o)] += n
				res.Outcomes[sim.Outcome(o)] += n
				pc := tr.PerProtocol[p.String()]
				if pc == nil {
					pc = OutcomeCounts{}
					tr.PerProtocol[p.String()] = pc
				}
				pc[sim.Outcome(o)] += n
			}
		}
		tr.TagKbps = float64(tr.TagBits) / spanSec / 1e3
		for b, bits := range t.buckets {
			res.Buckets[b] += bits
		}
		res.Tags = append(res.Tags, tr)
		res.FleetTagKbps += tr.TagKbps
	}
	for i := range perProto {
		perProto[i].TagKbps = float64(perProto[i].TagBits) / spanSec / 1e3
	}
	res.PerProtocol = perProto
	res.MeanTagKbps = res.FleetTagKbps / float64(len(tags))
	res.Fairness = jain(res.Tags)
	for b := range res.Buckets {
		res.Buckets[b] = res.Buckets[b] / bucketDur.Seconds() / 1e3
	}
	// Every response reads its working point once in contention; every
	// response that survives contention reads it again in the downlink,
	// and every delivery reads its packet capacity.
	o := res.Outcomes
	decoded := int64(o[sim.Delivered] + o[sim.DecodedConcurrent])
	table.LinkLookups = int64(o[sim.CrossCollided]) + 2*(decoded+int64(o[sim.LostDownlink]))
	table.BitsLookups = decoded
	res.Cache = table
	return res, nil
}

// jain computes Jain's fairness index over per-tag delivered rates:
// (Σx)² / (n·Σx²), 1 when all tags are equal (including all-zero), 1/n
// when one tag monopolizes the fleet.
func jain(tags []TagResult) float64 {
	var sum, sumSq float64
	for _, t := range tags {
		sum += t.TagKbps
		sumSq += t.TagKbps * t.TagKbps
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(tags)) * sumSq)
}

// Markdown renders the result as a markdown report: deployment summary,
// per-protocol totals, the fleet outcome histogram, and the throughput
// timeline.
func (r *Result) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# fleet deployment — %d tags, %d receivers\n\n", r.NumTags, r.NumReceivers)
	fmt.Fprintf(&b, "- span: %v (%d excitation packets, %d collided on air)\n", r.Span, r.Events, r.ExciteCollided)
	fmt.Fprintf(&b, "- fleet tag throughput: **%.1f kbps** (mean %.3f kbps/tag, Jain fairness %.3f)\n",
		r.FleetTagKbps, r.MeanTagKbps, r.Fairness)
	fmt.Fprintf(&b, "- link cache: %d link + %d capacity entries, link %d lookups / %d misses, bits %d lookups / %d misses\n\n",
		r.Cache.Entries, r.Cache.BitsEntries,
		r.Cache.LinkLookups, r.Cache.LinkMisses,
		r.Cache.BitsLookups, r.Cache.BitsMisses)

	fmt.Fprintf(&b, "| protocol | packets | delivered | concurrent | cross-collided | collided | misident | tag kbps |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|\n")
	for _, pt := range r.PerProtocol {
		if pt.Packets == 0 {
			continue
		}
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %d | %d | %.1f |\n",
			pt.Name, pt.Packets, pt.Outcomes[sim.Delivered], pt.Outcomes[sim.DecodedConcurrent],
			pt.Outcomes[sim.CrossCollided],
			pt.Outcomes[sim.Collided], pt.Outcomes[sim.Misidentified], pt.TagKbps)
	}

	fmt.Fprintf(&b, "\n**Outcomes:** ")
	first := true
	for _, o := range outcomesOrder {
		n := r.Outcomes[o]
		if n == 0 {
			continue
		}
		if !first {
			fmt.Fprintf(&b, ", ")
		}
		fmt.Fprintf(&b, "%s %d", o, n)
		first = false
	}
	fmt.Fprintf(&b, "\n\n**Timeline** (%v buckets, kbps): %s\n", r.BucketDur, sparkline(r.Buckets))
	return b.String()
}

// TopTags returns the n highest-rate tags (ties broken by ID), for
// fairness inspection.
func (r *Result) TopTags(n int) []TagResult {
	sorted := append([]TagResult(nil), r.Tags...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TagKbps > sorted[j].TagKbps })
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n]
}

// sparkline renders a bucket timeline with block glyphs.
func sparkline(buckets []float64) string {
	max := 0.0
	for _, v := range buckets {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return "(idle)"
	}
	marks := []rune(" ▁▂▃▄▅▆▇█")
	var sb strings.Builder
	for _, v := range buckets {
		sb.WriteRune(marks[int(v/max*float64(len(marks)-1))])
	}
	return "|" + sb.String() + "|"
}
