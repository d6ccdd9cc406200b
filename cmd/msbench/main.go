// Command msbench regenerates the tables and figures of "Multiprotocol
// Backscatter for Personal IoT Sensors" (CoNEXT 2020) from the
// multiscatter simulator and prints them next to the paper's published
// values, as the markdown sections of internal/report.
//
// Usage:
//
//	msbench [-experiment all|table1|table2|table3|table4|table5|table6|
//	         fig4|fig5|fig7|fig8|fig9|fig12|fig13|fig14|fig15|fig16|
//	         fig17|fig18|downlink] [-trials N] [-seed N]
//	msbench -markdown report.md            # full report + BENCH_<date>.json
//	msbench -json metrics.json             # metrics only ('-' for stdout)
//	msbench -obs :6060 -obs-hold 5s ...    # serve metrics + pprof alongside
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"multiscatter/internal/clilog"
	"multiscatter/internal/obs/obsflag"
	"multiscatter/internal/report"
)

var (
	experiment = flag.String("experiment", "all", "experiment id (table1..6, fig4..fig18, downlink, all)")
	trials     = flag.Int("trials", 30, "identification trials per protocol")
	seed       = flag.Int64("seed", 1, "random seed")
	markdown   = flag.String("markdown", "", "write a full markdown report to this file instead of printing")
	jsonOut    = flag.String("json", "", "write machine-readable metrics JSON (default BENCH_<date>.json next to -markdown; 'none' disables)")
)

func main() {
	flag.Parse()
	lg := clilog.Setup("msbench")
	lg.Debug("bench starting", "experiment", *experiment, "trials", *trials, "seed", *seed)
	defer obsflag.Start("msbench")()
	if *experiment != "all" && !slices.Contains(report.IDs(), *experiment) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known: all %s\n", *experiment, strings.Join(report.IDs(), " "))
		os.Exit(2)
	}
	o := report.Options{Trials: *trials, Seed: *seed}
	var err error
	switch {
	case *markdown != "" || *jsonOut != "":
		err = runReport(o)
	case *experiment == "all":
		err = report.Write(os.Stdout, o)
	default:
		err = report.WriteExperiment(os.Stdout, *experiment, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "msbench:", err)
		os.Exit(1)
	}
}

// runReport renders the full markdown report and/or the machine-readable
// metrics JSON (experiment id → metric → value) from one run of every
// experiment.
func runReport(o report.Options) error {
	out := io.Discard
	var mdFile *os.File
	if *markdown != "" {
		f, err := os.Create(*markdown)
		if err != nil {
			return err
		}
		mdFile, out = f, f
	}
	metrics, err := report.WriteMetrics(out, o)
	if err != nil {
		return err
	}
	if mdFile != nil {
		if err := mdFile.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *markdown)
	}

	path := *jsonOut
	if path == "none" {
		return nil
	}
	if path == "" {
		path = filepath.Join(filepath.Dir(*markdown),
			"BENCH_"+time.Now().Format("2006-01-02")+".json")
	}
	doc := struct {
		Generated string         `json:"generated"`
		Trials    int            `json:"trials"`
		Seed      int64          `json:"seed"`
		Metrics   report.Metrics `json:"metrics"`
	}{time.Now().Format(time.RFC3339), o.Trials, o.Seed, metrics}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
