package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"multiscatter/internal/obs"
)

// node is one span of an operation's tree. Times are Unix nanoseconds,
// the clock the program's own spans (obs.SpanSnapshot) use, so job
// spans read from the service line up with the benchmark's.
type node struct {
	name       string
	parent     int // index of the parent in the tree; -1 for the root
	start, end int64
}

// tracer keeps the span trees of a traced run in memory until the run
// ends. tree[0] of every recorded operation is its root span, which
// covers the operation's whole wall time.
type tracer struct {
	mu  sync.Mutex
	ops [][]node
}

func (t *tracer) record(tree []node) {
	t.mu.Lock()
	t.ops = append(t.ops, tree)
	t.mu.Unlock()
}

// selfTimes attributes every instant of an operation to the deepest span
// covering it, and among equally deep spans to the shortest, and returns
// each span name's share. For properly nested spans a span's self time
// is its duration minus the time its children cover; the tie rule lets
// overlapping siblings (a job's "streaming" span overlaps its "queued"
// and "running" spans) split the time instead of counting it twice. The
// root's own entry is the time no layer span covers.
func selfTimes(tree []node) map[string]int64 {
	depth := make([]int, len(tree))
	for i := 1; i < len(tree); i++ {
		for p := tree[i].parent; p > 0; p = tree[p].parent {
			depth[i]++
		}
		depth[i]++
	}
	root := tree[0]
	var cuts []int64
	for _, n := range tree {
		cuts = append(cuts, clamp(n.start, root.start, root.end), clamp(n.end, root.start, root.end))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	self := map[string]int64{}
	for k := 0; k+1 < len(cuts); k++ {
		lo, hi := cuts[k], cuts[k+1]
		if hi == lo {
			continue
		}
		best := 0
		for i, n := range tree {
			if n.start > lo || n.end < hi {
				continue
			}
			b := tree[best]
			if depth[i] > depth[best] || (depth[i] == depth[best] && n.end-n.start < b.end-b.start) {
				best = i
			}
		}
		self[tree[best].name] += hi - lo
	}
	return self
}

func clamp(v, lo, hi int64) int64 { return min(max(v, lo), hi) }

// layerStats folds the self times of every recorded operation: the total
// per span name, the operations' total wall time, and the smallest
// per-operation share of wall time that layer spans cover.
type layerStats struct {
	self        map[string]int64
	wall        int64
	ops         int
	minCoverage float64
}

func (t *tracer) layers() layerStats {
	ls := layerStats{self: map[string]int64{}, minCoverage: 1}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tree := range t.ops {
		dur := tree[0].end - tree[0].start
		if dur <= 0 {
			continue
		}
		self := selfTimes(tree)
		for k, v := range self {
			ls.self[k] += v
		}
		ls.wall += dur
		ls.ops++
		ls.minCoverage = min(ls.minCoverage, 1-float64(self[tree[0].name])/float64(dur))
	}
	return ls
}

// coverage is the share of all operations' wall time that layer spans
// cover.
func (ls layerStats) coverage(root string) float64 {
	if ls.wall == 0 {
		return 0
	}
	return 1 - float64(ls.self[root])/float64(ls.wall)
}

// meanMS is a span name's mean self time per operation.
func (ls layerStats) meanMS(name string) float64 {
	if ls.ops == 0 {
		return 0
	}
	return float64(ls.self[name]) / 1e6 / float64(ls.ops)
}

// snapshots flattens the trees into the program's span format, with one
// "op" attribute per operation shared by all its spans.
func (t *tracer) snapshots() []obs.SpanSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []obs.SpanSnapshot
	for op, tree := range t.ops {
		base := int64(len(out))
		attrs := map[string]string{"op": strconv.Itoa(op + 1)}
		for _, n := range tree {
			s := obs.SpanSnapshot{
				ID:          int64(len(out)) + 1,
				Name:        n.name,
				StartUnixNS: n.start,
				EndUnixNS:   n.end,
				DurNS:       n.end - n.start,
				Attrs:       attrs,
			}
			if n.parent >= 0 {
				s.Parent = base + int64(n.parent) + 1
			}
			out = append(out, s)
		}
	}
	return out
}

// writeSpans writes the run's spans to dir as <workload>.spans.jsonl and
// <workload>.chrome.json (loadable in https://ui.perfetto.dev).
func (t *tracer) writeSpans(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans := t.snapshots()
	write := func(name string, fn func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", name, err)
		}
		return f.Close()
	}
	if err := write(workload+".spans.jsonl", func(f *os.File) error { return obs.WriteSpanJSONL(f, spans) }); err != nil {
		return err
	}
	return write(workload+".chrome.json", func(f *os.File) error { return obs.WriteSpanChrome(f, "msperf "+workload, spans) })
}
