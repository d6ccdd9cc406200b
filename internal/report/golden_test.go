package report

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var update = flag.Bool("update", false, "regenerate the metrics golden")

// TestMetricsGolden pins every BENCH metric at the committed baseline's
// settings (30 trials, seed 1): each key and its value, byte for byte in
// JSON. Regenerate deliberately with
// `go test ./internal/report -run MetricsGolden -update`.
func TestMetricsGolden(t *testing.T) {
	m, err := WriteMetrics(io.Discard, Options{Trials: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "metrics_golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var base Metrics
	if err := json.Unmarshal(want, &base); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("metrics drifted from %s:\n%s", path, metricsDiff(base, m))
}

// metricsDiff lists the keys whose values differ or that only one side
// has, one per line, in sorted order.
func metricsDiff(want, got Metrics) string {
	seen := map[string]bool{}
	var lines []string
	for exp, wm := range want {
		for k, w := range wm {
			seen[exp+"/"+k] = true
			g, ok := got[exp][k]
			switch {
			case !ok:
				lines = append(lines, fmt.Sprintf("missing %s/%s (want %v)", exp, k, w))
			case g != w:
				lines = append(lines, fmt.Sprintf("%s/%s = %v, want %v", exp, k, g, w))
			}
		}
	}
	for exp, gm := range got {
		for k, g := range gm {
			if !seen[exp+"/"+k] {
				lines = append(lines, fmt.Sprintf("extra %s/%s = %v", exp, k, g))
			}
		}
	}
	sort.Strings(lines)
	var b bytes.Buffer
	for _, l := range lines {
		b.WriteString(l + "\n")
	}
	return b.String()
}
