// Package traceflag registers the shared -trace / -trace-sample /
// -trace-format flags that give the simulation CLIs the same flight-
// recorder surface: importing the package adds the flags, Recorder
// (called after flag.Parse) builds the configured recorder for the
// engine config, and Finish drains it and writes the requested export
// format. See docs/OBSERVABILITY.md for the event schema and formats.
package traceflag

import (
	"flag"
	"fmt"
	"os"

	"multiscatter/internal/obs/ptrace"
)

var (
	path = flag.String("trace", "",
		"write the per-packet flight-recorder stream to this path ('-' for stdout); empty disables")
	sample = flag.Int("trace-sample", 1,
		"with -trace, record every Nth packet of the excitation timeline (1 = all)")
	format = flag.String("trace-format", "jsonl",
		"trace format: jsonl (line-delimited events) or chrome (Perfetto-loadable)")
)

// Enabled reports whether -trace was set (valid after flag.Parse).
func Enabled() bool { return *path != "" }

// Recorder returns a flight recorder honouring the flags, or nil when
// -trace is unset so the engines keep their nil fast path. Invalid flag
// combinations are fatal here, before the run spends any time.
func Recorder(cli string) *ptrace.Recorder {
	if *path == "" {
		return nil
	}
	if *format != "jsonl" && *format != "chrome" {
		fmt.Fprintf(os.Stderr, "%s: bad -trace-format %q (want jsonl or chrome)\n", cli, *format)
		os.Exit(2)
	}
	if *sample < 1 {
		fmt.Fprintf(os.Stderr, "%s: bad -trace-sample %d (want >= 1)\n", cli, *sample)
		os.Exit(2)
	}
	return ptrace.New(ptrace.Config{Sample: *sample})
}

// Finish drains rec into the canonical event stream and writes it to
// the -trace path in the -trace-format encoding. A nil rec (tracing
// disabled) is a no-op.
// Write failures are fatal — a requested but silently missing trace is
// worse than none.
func Finish(cli string, rec *ptrace.Recorder) {
	if rec == nil {
		return
	}
	evs := rec.Drain()
	out := os.Stdout
	if *path != "-" {
		f, err := os.Create(*path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", cli, err)
			os.Exit(1)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", cli, err)
				os.Exit(1)
			}
		}()
		out = f
	}
	var err error
	switch *format {
	case "chrome":
		err = ptrace.WriteChromeTrace(out, cli, evs)
	default:
		err = ptrace.WriteJSONL(out, evs)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: write trace: %v\n", cli, err)
		os.Exit(1)
	}
	if *path != "-" {
		fmt.Fprintf(os.Stderr, "%s: wrote %d trace events to %s (%s)\n", cli, len(evs), *path, *format)
	}
}
