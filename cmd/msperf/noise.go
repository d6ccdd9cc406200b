package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// fingerprint names the machine and toolchain a run was measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

func readFingerprint() fingerprint {
	fp := fingerprint{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return fp
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			fp.CPU = strings.TrimSpace(v)
			break
		}
	}
	return fp
}

// calibNominalMS is what one calibration takes on the reference machine
// (2-core Xeon, Go 1.24, quiet). End-to-end times are reported at that
// speed: a run's raw times are scaled by calibNominalMS over the run's
// median calibration.
const calibNominalMS = 12.0

// calibBufs are the calibration loop's buffers, one per P, allocated
// once so that a calibration never includes allocation.
var calibBufs [][]float64

// calibrate times the benchmark's own machine-speed probe and returns
// milliseconds: on every P at once, a dependent multiply-add streamed
// eight times over a private 4 MiB buffer, the median of three
// repetitions. Shared hosts change speed by tens of percent within
// minutes (neighbours on the same cores, caches and memory bus); the
// probe sees the same slowdown the workloads see. No program code runs
// in it, so a change to the program cannot move it, and a forced GC
// first keeps the program's collector off the machine while it runs.
func calibrate() float64 {
	if calibBufs == nil {
		for p := 0; p < runtime.GOMAXPROCS(0); p++ {
			b := make([]float64, 1<<19)
			for i := range b {
				b[i] = float64(i%97) * 1e-3
			}
			calibBufs = append(calibBufs, b)
		}
	}
	runtime.GC()
	var reps []float64
	for r := 0; r < 3; r++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for _, b := range calibBufs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := 1.0
				for pass := 0; pass < 8; pass++ {
					for i := range b {
						s = s*0.999 + b[i]
						b[i] = s * 1e-3
					}
				}
			}()
		}
		wg.Wait()
		reps = append(reps, ms(time.Since(t0)))
	}
	return median(reps)
}

// noise is the run's host-contention record: the share of CPU time the
// hypervisor stole while the run measured, and the calibrations taken
// before the first segment and after each one. A run whose last
// calibration differs from its first by more than the p50_ms bound is
// unstable: the machine changed speed under it faster than scaling by
// the median calibration can follow, so its numbers are not compared.
type noise struct {
	StealFrac float64   `json:"steal_frac"`
	CalibMS   []float64 `json:"calib_ms"`
	DriftFrac float64   `json:"calib_drift_frac"`
	Unstable  bool      `json:"unstable"`
}

func newNoise(steal float64, calibs []float64, bound float64) noise {
	n := noise{StealFrac: steal, CalibMS: calibs}
	if len(calibs) > 1 {
		n.DriftFrac = math.Abs(calibs[len(calibs)-1]/calibs[0] - 1)
	}
	n.Unstable = n.DriftFrac > bound
	return n
}

// cpuJiffies returns the steal and total jiffies of the aggregate "cpu"
// line of /proc/stat (zeros where it is unavailable).
func cpuJiffies() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so it is left out.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
