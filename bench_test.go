// BenchmarkExperiments regenerates every table and figure of the paper's
// evaluation: one sub-benchmark per experiment of internal/report, named
// by its msbench id, at msbench's defaults (30 trials, seed 1). Each
// times one run and, on the first iteration, logs the section msbench
// prints for that id. Run with -v, or Go cuts each log at 10 lines:
//
//	go test -run - -bench Experiments -benchtime 1x -v .
package multiscatter_test

import (
	"strings"
	"testing"

	"multiscatter/internal/report"
)

// logOnce logs s on the first benchmark iteration only.
func logOnce(b *testing.B, i int, format string, args ...any) {
	b.Helper()
	if i == 0 {
		b.Logf(format, args...)
	}
}

func BenchmarkExperiments(b *testing.B) {
	for _, id := range report.IDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var sb strings.Builder
				if err := report.WriteExperiment(&sb, id, report.Options{}); err != nil {
					b.Fatal(err)
				}
				logOnce(b, i, "\n%s", sb.String())
			}
		})
	}
}
