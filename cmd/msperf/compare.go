package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// setupFloorS is the absolute change in setup_s below which a set-up
// time never counts as regressed: set-up takes milliseconds, where a
// relative bound alone would flag scheduler noise.
const setupFloorS = 0.05

// record is the suite's run record as compare reads it.
type record struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Runs        []runRecord `json:"runs"`
}

func readRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// values returns the workload's untraced, stable, correct runs' values
// of a metric, and how many runs were left out as unstable.
func (r record) values(workload, metric string) (vals []float64, unstable int) {
	for _, run := range r.Runs {
		if run.Workload != workload || run.Trace || !run.Correct {
			continue
		}
		if run.Noise.Unstable {
			unstable++
			continue
		}
		if v, ok := run.Metrics[metric]; ok {
			vals = append(vals, v.Value)
		}
	}
	return vals, unstable
}

// compare prints one row per workload × end-to-end metric of base: the
// two medians, the change, and a verdict. A metric whose run-to-run
// spread (interquartile range over median, the wider of the two sides)
// exceeds its bound is unresolved unless every new run beats every base
// run. It reports whether any verdict is "regressed".
func compare(w io.Writer, bench benchSpec, basePath, newPath string) (bool, error) {
	base, err := readRecord(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readRecord(newPath)
	if err != nil {
		return false, err
	}
	if base.Fingerprint != cur.Fingerprint {
		fmt.Fprintf(w, "warning: fingerprints differ (%+v vs %+v)\n", base.Fingerprint, cur.Fingerprint)
	}
	seen := map[string]bool{}
	var names []string
	for _, run := range base.Runs {
		if !seen[run.Workload] {
			seen[run.Workload] = true
			names = append(names, run.Workload)
		}
	}
	sort.Strings(names)
	regressed := false
	fmt.Fprintf(w, "%-15s %-12s %12s %12s %9s %7s  %s\n", "workload", "metric", "base", "new", "delta", "spread", "verdict")
	for _, wl := range names {
		for _, m := range bench.EndToEnd {
			bv, bu := base.values(wl, m.Name)
			nv, nu := cur.values(wl, m.Name)
			if len(bv) == 0 || len(nv) == 0 {
				fmt.Fprintf(w, "%-15s %-12s %12s %12s %9s %7s  no stable runs (%d+%d unstable)\n", wl, m.Name, "-", "-", "-", "-", bu, nu)
				continue
			}
			bm, nm := median(bv), median(nv)
			delta := (nm - bm) / bm
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			sp := math.Max(spread(bv), spread(nv))
			v := verdict(worse, sp, m.Bound, allBetter(bv, nv, m.Better))
			if v == "regressed" && m.Name == "setup_s" && math.Abs(nm-bm) < setupFloorS {
				v = "ok"
			}
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "%-15s %-12s %12.4f %12.4f %+8.1f%% %6.1f%%  %s\n", wl, m.Name, bm, nm, 100*delta, 100*sp, v)
		}
	}
	return regressed, nil
}

// verdict classifies a change. worse is the relative change in the
// direction that is worse for the metric.
func verdict(worse, spread, bound float64, allBetter bool) string {
	switch {
	case spread > bound && allBetter:
		return "improved"
	case spread > bound:
		return "unresolved"
	case worse > bound:
		return "regressed"
	case worse < -bound:
		return "improved"
	default:
		return "ok"
	}
}

// allBetter reports whether every new value beats every base value.
func allBetter(base, cur []float64, better string) bool {
	bmin, bmax := minMax(base)
	nmin, nmax := minMax(cur)
	if better == "higher" {
		return nmin > bmax
	}
	return nmax < bmin
}

func minMax(xs []float64) (lo, hi float64) {
	s := sortedCopy(xs)
	return s[0], s[len(s)-1]
}
