package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram: len(bounds)+1 buckets where
// bucket i counts observations v with v ≤ bounds[i] (and the last bucket
// is the overflow). Bounds are fixed at creation, so observing never
// allocates, and two histograms with the same layout merge bucket-wise.
// All methods are safe for concurrent use and lock-free.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// TimeBucketsNS is the default bucket layout for durations in
// nanoseconds: decades from 1 µs to 10 s (1e3 … 1e10 ns), plus the
// overflow bucket. Coarse on purpose — stage timings are for spotting
// order-of-magnitude shifts, not percentile SLOs.
func TimeBucketsNS() []float64 {
	return ExpBuckets(1e3, 10, 8)
}

// LatencyBucketsMS is the SLO-oriented layout for request/job latencies
// in milliseconds: fine-grained through the interactive range (1 ms –
// 1 s), then coarser up to 60 s. Dense enough that Quantile estimates of
// p50/p95/p99 stay within one bucket step of the truth for typical
// service latencies.
func LatencyBucketsMS() []float64 {
	return []float64{
		1, 2.5, 5, 10, 25, 50, 100, 250, 500,
		1000, 2500, 5000, 10000, 30000, 60000,
	}
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start and multiplying by factor: start, start·factor, … — the standard
// layout for latencies and sizes.
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// NewHistogram builds a standalone histogram over the given upper
// bounds — for callers that do not want registry lifetime (CLI-side
// summaries, tests). Bounds pass through normalizeBounds: nil/empty
// defaults to TimeBucketsNS, unsorted input is sorted, duplicates
// collapse, and NaN or ±Inf bounds panic (a histogram layout is
// program structure, not data — rejecting it loudly at construction is
// the contract Registry.Histogram and Snapshot.Merge rely on).
func NewHistogram(bounds []float64) *Histogram {
	own := normalizeBounds(bounds)
	return &Histogram{
		bounds: own,
		counts: make([]atomic.Int64, len(own)+1),
	}
}

// normalizeBounds validates and canonicalizes a bucket layout: a copy
// of bounds, sorted ascending with duplicates removed. nil or empty
// input takes the TimeBucketsNS default. NaN and ±Inf panic — NaN
// breaks sort.SearchFloat64s' invariants silently, and +Inf would
// shadow the implicit overflow bucket (rendering twice as le="+Inf" in
// Prometheus exposition).
func normalizeBounds(bounds []float64) []float64 {
	if len(bounds) == 0 {
		return TimeBucketsNS()
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	for _, b := range own {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("obs: histogram bound %v is not finite", b))
		}
	}
	sort.Float64s(own)
	dedup := own[:1]
	for _, b := range own[1:] {
		if b != dedup[len(dedup)-1] {
			dedup = append(dedup, b)
		}
	}
	return dedup
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// addFloat atomically adds v to the float64 stored in bits (CAS loop).
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// snapshot captures the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}
