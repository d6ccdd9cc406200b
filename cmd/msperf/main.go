// Command msperf is the repository's wall-clock benchmark. It runs named
// workloads through the paper's waveform pipeline, the fleet engine and
// the msserve HTTP handler, checks every output against a reference, and
// reports end-to-end metrics (untraced runs) or per-layer metrics (traced
// runs). BENCHMARK.json at the repository root declares the workloads,
// the metrics and their regression bounds; README.md in this directory
// is the metric catalogue.
//
//	msperf -workload pipeline -seed 1 -seconds 10 -trace 0   one run, JSON last line
//	msperf [-reps 3] [-trace 1 -spans dir] [-out rec.json]     every workload, one process each
//	msperf -compare base.json new.json                         verdict per workload × metric
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// params are one run's inputs.
type params struct {
	seed    int64
	seconds float64
	trace   bool
	// spans, when set on a traced run, is the directory the run's span
	// files are written to.
	spans string
	// bench is BENCHMARK.json; its p50_ms bound is the calibration drift
	// beyond which the run is marked unstable.
	bench benchSpec
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run of a workload measured.
type report struct {
	attempted int
	failed    int
	// metrics holds the run's numbers by name; traced runs hold the
	// per-layer metrics, untraced runs the end-to-end ones.
	metrics map[string]float64
	// raw holds an untraced run's end-to-end numbers before scaling to
	// the reference machine's speed.
	raw   map[string]float64
	noise noise
}

// workload is one named benchmark input set; BENCHMARK.json and
// README.md give the reason for each.
type workload struct {
	name string
	run  func(p params) (*report, error)
	// inputs generates the workload's inputs for a seed, for the
	// determinism test.
	inputs func(seed int64) any
}

var workloads = []workload{
	{"pipeline", runPipeline, func(seed int64) any { return pipelineInputs(seed) }},
	{"fleet-personal",
		func(p params) (*report, error) { return runFleet(p, "fleet-personal", personalJob) },
		func(seed int64) any { return fleetInputs(seed, personalJob) }},
	{"fleet-harvest",
		func(p params) (*report, error) { return runFleet(p, "fleet-harvest", harvestJob) },
		func(seed int64) any { return fleetInputs(seed, harvestJob) }},
	{"serve-steady", runServeSteady, func(seed int64) any { return steadyJobs(seed, 1) }},
	{"serve-repeat", runServeRepeat, func(seed int64) any { return repeatJobs(seed) }},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func main() {
	workloadName := flag.String("workload", "", "run this workload alone in this process and print its JSON result last")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement window per run, in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
	spans := flag.String("spans", "", "directory for span files of traced runs (JSONL and Chrome trace)")
	reps := flag.Int("reps", 1, "runs per workload in suite mode, with seeds seed, seed+1, ...")
	out := flag.String("out", "", "write the suite's run record to this JSON file")
	doCompare := flag.Bool("compare", false, "compare two run records: msperf -compare base.json new.json")
	flag.Parse()

	bench, err := loadBench()
	if err != nil {
		fatal(err)
	}
	if *doCompare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two record files"))
		}
		regressed, err := compare(os.Stdout, bench, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive, got %v", *seconds))
	}
	p := params{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, spans: *spans, bench: bench}
	if *workloadName != "" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fatal(err)
		}
		rec, err := runOne(os.Stdout, w, p)
		if err != nil {
			fatal(err)
		}
		if !rec.Correct {
			os.Exit(1)
		}
		return
	}
	if err := suite(os.Stdout, p, *reps, *out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "msperf:", err)
	os.Exit(2)
}

// runRecord is one run as the suite records it.
type runRecord struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Trace       bool                   `json:"trace"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Metrics     map[string]metricValue `json:"metrics"`
	Raw         map[string]float64     `json:"raw,omitempty"`
	Noise       noise                  `json:"noise"`
	Fingerprint fingerprint            `json:"fingerprint"`
}

// detailPrefix marks the stdout line carrying a run's full record, which
// the suite reads back from each child process.
const detailPrefix = "msperf-detail "

// runOne runs one workload in this process and prints its result.
func runOne(w io.Writer, wl workload, p params) (runRecord, error) {
	r, err := wl.run(p)
	if err != nil {
		return runRecord{}, fmt.Errorf("%s: %w", wl.name, err)
	}
	return emit(w, wl, p, r)
}

// emit prints a run's metrics in BENCHMARK.json's order, the detail line
// and, last, the JSON result object. A declared metric the workload does
// not reach reads 0; a metric BENCHMARK.json does not declare is an
// error.
func emit(w io.Writer, wl workload, p params, r *report) (runRecord, error) {
	defs := p.bench.EndToEnd
	if p.trace {
		defs = p.bench.PerLayer
	}
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.Name] = true
	}
	for name := range r.metrics {
		if !declared[name] {
			return runRecord{}, fmt.Errorf("%s reports %s, which BENCHMARK.json does not declare", wl.name, name)
		}
	}
	rec := runRecord{
		Workload: wl.name, Seed: p.seed, Trace: p.trace,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}, Raw: r.raw,
		Noise: r.noise, Fingerprint: readFingerprint(),
	}
	for _, d := range defs {
		rec.Metrics[d.Name] = metricValue{Value: r.metrics[d.Name], Unit: d.Unit}
		line := fmt.Sprintf("%-15s %-34s %14.4f %s", wl.name, d.Name, r.metrics[d.Name], d.Unit)
		if v, ok := r.raw[d.Name]; ok {
			line += fmt.Sprintf("  (raw %.4f)", v)
		}
		fmt.Fprintln(w, line)
	}
	fp := rec.Fingerprint
	fmt.Fprintf(w, "%-15s correct=%v attempted=%d failed=%d steal=%.4f calib_drift=%.4f unstable=%v | %s, nproc %d, GOMAXPROCS %d, %s\n",
		wl.name, rec.Correct, rec.Attempted, rec.Failed, r.noise.StealFrac, r.noise.DriftFrac, r.noise.Unstable,
		fp.CPU, fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion)
	detail, err := json.Marshal(rec)
	if err != nil {
		return rec, err
	}
	fmt.Fprintln(w, detailPrefix+string(detail))
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return rec, err
	}
	fmt.Fprintln(w, string(last))
	return rec, nil
}

// suite runs every named workload in a child process of its own (so
// peak RSS and GC state are per workload), untraced and, with p.trace,
// traced as well, and optionally writes the run record.
func suite(w io.Writer, p params, reps int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rec := record{Fingerprint: readFingerprint()}
	traces := []int{0}
	if p.trace {
		traces = append(traces, 1)
	}
	var failed []string
	for _, wl := range workloads {
		name := wl.name
		for r := 0; r < reps; r++ {
			for _, tr := range traces {
				args := []string{"-workload", name, "-seed", strconv.FormatInt(p.seed+int64(r), 10),
					"-seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64), "-trace", strconv.Itoa(tr)}
				if tr == 1 && p.spans != "" {
					args = append(args, "-spans", p.spans)
				}
				run, err := runChild(w, exe, args)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				if !run.Correct {
					failed = append(failed, name)
				}
				rec.Runs = append(rec.Runs, run)
			}
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("correctness gate failed on %s", strings.Join(failed, ", "))
	}
	return nil
}

// runChild runs msperf with args, echoes its metric lines to w, and
// returns the run record from its detail line.
func runChild(w io.Writer, exe string, args []string) (runRecord, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return runRecord{}, err
	}
	if err := cmd.Start(); err != nil {
		return runRecord{}, err
	}
	var run runRecord
	var found bool
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if d, ok := strings.CutPrefix(line, detailPrefix); ok {
			found = json.Unmarshal([]byte(d), &run) == nil
			continue
		}
		if !strings.HasPrefix(line, "{") {
			fmt.Fprintln(w, line)
		}
	}
	werr := cmd.Wait()
	if !found {
		return run, fmt.Errorf("no result from %v: %v", args, werr)
	}
	return run, nil
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json msperf reads. It is the one
// list of metrics: runs report exactly these, in this order and unit.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadBench reads the nearest BENCHMARK.json at or above the working
// directory: the repository root's, from the root or from cmd/msperf.
func loadBench() (benchSpec, error) {
	var spec benchSpec
	dir, err := os.Getwd()
	if err != nil {
		return spec, err
	}
	path := filepath.Join(dir, "BENCHMARK.json")
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return spec, errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
		path = filepath.Join(dir, "BENCHMARK.json")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return spec, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return spec, nil
}

// bound returns the end-to-end metric's bound (0 if it is not declared).
func (b benchSpec) bound(name string) float64 {
	for _, m := range b.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}
