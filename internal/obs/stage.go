package obs

import (
	"sync/atomic"
	"time"
)

// StageTimer accumulates the wall-clock cost of one named pipeline stage:
// how many times it ran, total and maximum nanoseconds. The zero value is
// ready to use; all methods are lock-free. Stage totals are wall-clock
// and therefore not reproducible across runs — deterministic gates must
// compare counters, not stages (see Snapshot.CountersOnly).
type StageTimer struct {
	count atomic.Int64
	total atomic.Int64
	max   atomic.Int64
	// minP1 stores the minimum plus one so the zero value means
	// "no observations yet" (a genuine 0 ns minimum stores 1).
	minP1 atomic.Int64
}

// Observe records one execution of the stage.
func (t *StageTimer) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	t.count.Add(1)
	t.total.Add(ns)
	for {
		old := t.max.Load()
		if ns <= old || t.max.CompareAndSwap(old, ns) {
			break
		}
	}
	for {
		old := t.minP1.Load()
		if (old != 0 && ns+1 >= old) || t.minP1.CompareAndSwap(old, ns+1) {
			return
		}
	}
}

// ObserveSince records one execution that started at t0. The idiomatic
// one-line form is
//
//	defer timer.ObserveSince(time.Now())
//
// which evaluates time.Now at the defer statement and the timer at
// function return.
func (t *StageTimer) ObserveSince(t0 time.Time) { t.Observe(time.Since(t0)) }

// MinNS returns the fastest recorded execution in nanoseconds (0 when
// no executions have been recorded).
func (t *StageTimer) MinNS() int64 {
	if p1 := t.minP1.Load(); p1 > 0 {
		return p1 - 1
	}
	return 0
}

// snapshot captures the timer's current state.
func (t *StageTimer) snapshot() StageSnapshot {
	return StageSnapshot{
		Count:   t.count.Load(),
		TotalNS: t.total.Load(),
		MinNS:   t.MinNS(),
		MaxNS:   t.max.Load(),
	}
}
