package report

import (
	"strings"
	"testing"
)

type failAfter struct {
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	f.n -= len(p)
	if f.n < 0 {
		return 0, errShort
	}
	return len(p), nil
}

var errShort = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "write limit" }

func TestWriteReport(t *testing.T) {
	var sb strings.Builder
	if err := Write(&sb, Options{Trials: 8, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# multiscatter",
		"Table 2",
		"Table 4",
		"Identification",
		"| 20 Msps, full precision, ordered |",
		"Overlay trade-offs",
		"Ranges",
		"Baselines",
		"Excitation diversity",
		"Figure 18b",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Markdown tables should be well formed: every table row line starts
	// and ends with a pipe.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "|") && !strings.HasSuffix(line, "|") {
			t.Errorf("malformed table row: %q", line)
		}
	}
}

// TestRunMetricsSectionStable is the golden determinism check for the
// report's observability section: two identical seeded runs in the same
// process must render byte-identically, even though the underlying obs
// counters are cumulative (the section is a per-run delta of the
// deterministic counter subset).
func TestRunMetricsSectionStable(t *testing.T) {
	render := func() string {
		var sb strings.Builder
		if err := Write(&sb, Options{Trials: 4, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first, second := render(), render()
	if first != second {
		t.Fatalf("two identical seeded reports differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, "## Run metrics") {
		t.Fatal("report missing Run metrics section")
	}
	if !strings.Contains(first, "core.link.rssi_evals") {
		t.Fatalf("Run metrics section missing link-eval counters:\n%s", first)
	}
}

func TestWriteReportPropagatesErrors(t *testing.T) {
	if err := Write(&failAfter{n: 100}, Options{Trials: 4}); err == nil {
		t.Fatal("write error not propagated")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Trials != 30 || o.Seed != 1 || o.Title == "" {
		t.Fatalf("defaults = %+v", o)
	}
}

// TestExperimentIDs: every id msbench accepts maps to exactly one
// experiment, which renders a section with a body, and an unknown id is
// an error.
func TestExperimentIDs(t *testing.T) {
	want := []string{"table1", "table2", "table3", "table4", "table5", "table6",
		"fig4", "fig5", "fig7", "fig8", "fig9", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "downlink"}
	if got := IDs(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
	for _, id := range want {
		var sb strings.Builder
		if err := WriteExperiment(&sb, id, Options{Trials: 4}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		// Heading, paper line, then a body.
		parts := strings.SplitN(sb.String(), "\n\n", 3)
		if len(parts) < 3 || !strings.HasPrefix(parts[0], "## ") ||
			!strings.HasPrefix(parts[1], "Paper: ") || strings.TrimSpace(parts[2]) == "" {
			t.Errorf("%s renders no section body:\n%s", id, sb.String())
		}
	}
	if err := WriteExperiment(&strings.Builder{}, "fig6", Options{}); err == nil {
		t.Fatal("unknown experiment fig6 accepted")
	}
}
