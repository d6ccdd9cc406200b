// Package serve turns the one-deployment-per-invocation fleet engine
// into a resident multi-deployment service: JSON job configs in, NDJSON
// results out, many jobs concurrently against one shared fleet.Pool
// with admission control and per-job budgets.
//
// The reproducibility contract is the package's backbone: a JobConfig
// maps to exactly the fleet.Config that cmd/msfleet builds for the same
// parameters, and fleet results are byte-identical at any worker count,
// so a job run under shared-pool scheduling equals a standalone msfleet
// run with the same (seed, config) byte for byte. serve_test.go pins
// this, and scripts/serve_smoke.sh re-checks it end-to-end over HTTP.
//
// See docs/SERVICE.md for the job API, config schema and budgets.
package serve

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"multiscatter/internal/channel"
	"multiscatter/internal/excite"
	"multiscatter/internal/fleet"
	"multiscatter/internal/sim"
)

// JobConfig is one fleet deployment job as submitted over the API. It
// is the JSON counterpart of cmd/msfleet's flags; zero fields take the
// same defaults the CLI uses, so (seed, config) names one reproducible
// run in both worlds.
type JobConfig struct {
	// Scenario names the excitation environment (home, office, cafe,
	// warehouse). Default "office".
	Scenario string `json:"scenario,omitempty"`
	// Tags on the floor plan. Default 50.
	Tags int `json:"tags,omitempty"`
	// FloorW, FloorH are the floor-plan dimensions in metres.
	// Default 30×50.
	FloorW float64 `json:"floor_w_m,omitempty"`
	FloorH float64 `json:"floor_h_m,omitempty"`
	// Receivers spread over the floor. Default 1.
	Receivers int `json:"receivers,omitempty"`
	// SpanMS is the simulated time span in milliseconds. Default 10000.
	SpanMS int `json:"span_ms,omitempty"`
	// Seed for reproducibility. Default 1.
	Seed int64 `json:"seed,omitempty"`
	// CaptureDB is the cross-tag capture margin. Default 10.
	CaptureDB float64 `json:"capture_db,omitempty"`
	// ConcurrentOFDM caps how many colliding 802.11n tags the receiver
	// decodes jointly via subcarrier-group separation. 0 takes the engine
	// default (4); negative disables joint decoding (capture arbitration
	// only). Mirrors msfleet's -joint.
	ConcurrentOFDM int `json:"concurrent_ofdm,omitempty"`
	// BucketMS sizes the throughput timeline buckets. Default 500.
	BucketMS int `json:"bucket_ms,omitempty"`
	// ShadowSigmaDB enables log-normal shadowing when positive.
	ShadowSigmaDB float64 `json:"shadow_sigma_db,omitempty"`
	// Lux, when positive, makes every tag energy-harvesting at this
	// light level (msfleet's -lux).
	Lux float64 `json:"lux,omitempty"`
	// MaxPackets caps the excitation timeline; 0 inherits the server's
	// per-job packet budget. The run fails admission-style (job state
	// "failed", fleet.ErrBudget) when exceeded.
	MaxPackets int `json:"max_packets,omitempty"`
	// WallBudgetMS, when positive, cancels the job after this much
	// wall-clock run time (per-job time budget).
	WallBudgetMS int `json:"wall_budget_ms,omitempty"`
	// TraceSample, when positive, captures a per-packet flight-recorder
	// trace sampling one in TraceSample packets (1 = every packet),
	// exposed at /jobs/{id}/trace. A traced job always runs: it is never
	// served from an earlier job's result.
	TraceSample int `json:"trace_sample,omitempty"`
	// PhaseMaxDriftHz, when positive, enables the phase-aware complex
	// channel with this residual drift cap (msfleet's -phase; see
	// docs/CHANNELS.md). Other phase parameters take engine defaults.
	PhaseMaxDriftHz float64 `json:"phase_max_drift_hz,omitempty"`
	// Baseline selects the decoding architecture ("" = multiscatter,
	// "doubledecker" = single-receiver superposition decoding, which
	// auto-enables the phase-aware channel). Mirrors msfleet's -baseline.
	Baseline string `json:"baseline,omitempty"`
}

// Normalize fills defaults in place. It is idempotent, and Manager
// applies it at submission so job listings show the effective config.
func (jc *JobConfig) Normalize() {
	if jc.Scenario == "" {
		jc.Scenario = "office"
	}
	if jc.Tags <= 0 {
		jc.Tags = 50
	}
	if jc.FloorW <= 0 {
		jc.FloorW = 30
	}
	if jc.FloorH <= 0 {
		jc.FloorH = 50
	}
	if jc.Receivers <= 0 {
		jc.Receivers = 1
	}
	if jc.SpanMS <= 0 {
		jc.SpanMS = 10000
	}
	if jc.Seed == 0 {
		jc.Seed = 1
	}
	if jc.CaptureDB <= 0 {
		jc.CaptureDB = 10
	}
	if jc.BucketMS <= 0 {
		jc.BucketMS = 500
	}
}

// Span returns the simulated span as a Duration.
func (jc JobConfig) Span() time.Duration { return time.Duration(jc.SpanMS) * time.Millisecond }

// FleetConfig resolves the job into the engine config — the same
// assembly cmd/msfleet performs, factored here so service jobs and
// standalone runs cannot drift apart. The caller owns scheduling
// concerns (Obs, Pool, Workers, Trace) on the returned config.
func (jc JobConfig) FleetConfig() (fleet.Config, error) {
	jc.Normalize()
	sc, err := excite.FindScenario(jc.Scenario)
	if err != nil {
		return fleet.Config{}, err
	}
	specs := fleet.PlaceGrid(jc.Tags, jc.FloorW, jc.FloorH)
	if jc.Lux > 0 {
		for i := range specs {
			specs[i].Energy = &sim.EnergyConfig{Lux: jc.Lux, StartCharged: true}
		}
	}
	cfg := fleet.Config{
		Sources:        sc.Sources,
		Tags:           specs,
		Receivers:      fleet.PlaceReceivers(jc.Receivers, jc.FloorW, jc.FloorH),
		Span:           jc.Span(),
		BucketMS:       jc.BucketMS,
		Seed:           jc.Seed,
		CaptureDB:      jc.CaptureDB,
		ConcurrentOFDM: jc.ConcurrentOFDM,
		MaxEvents:      jc.MaxPackets,
	}
	if jc.ShadowSigmaDB > 0 {
		ch := channel.NewLoS()
		ch.ShadowSigmaDB = jc.ShadowSigmaDB
		cfg.Channel = ch
	}
	if jc.PhaseMaxDriftHz > 0 {
		cfg.Phase = &fleet.PhaseConfig{MaxDriftHz: jc.PhaseMaxDriftHz}
	}
	cfg.Baseline = fleet.BaselineSystem(jc.Baseline)
	return cfg, nil
}

// BenchJobs returns n small deployment jobs cycling scenarios and
// seeds — the fixed workload shared by the serve benchmarks and the
// msbench "serve" section, so all report the same job shape.
func BenchJobs(n int) []JobConfig {
	scenarios := []string{"home", "office", "cafe", "warehouse"}
	jobs := make([]JobConfig, n)
	for i := range jobs {
		jobs[i] = JobConfig{
			Scenario:  scenarios[i%len(scenarios)],
			Tags:      8,
			FloorW:    12,
			FloorH:    18,
			Receivers: 2,
			SpanMS:    1000,
			Seed:      int64(i + 1),
			CaptureDB: 10,
			BucketMS:  500,
		}
	}
	return jobs
}

// ParseFloor parses "30x50" into width and height in metres — the
// -floor syntax shared by msfleet and msload. Each size must be positive
// and finite.
func ParseFloor(s string) (w, h float64, err error) {
	parts := strings.SplitN(strings.ToLower(s), "x", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad floor %q (want WxH, e.g. 30x50)", s)
	}
	if w, err = parseSize(parts[0]); err != nil {
		return 0, 0, fmt.Errorf("bad floor width %q", parts[0])
	}
	if h, err = parseSize(parts[1]); err != nil {
		return 0, 0, fmt.Errorf("bad floor height %q", parts[1])
	}
	return w, h, nil
}

// parseSize parses one positive, finite floor size. strconv.ParseFloat
// accepts "NaN" and "Inf", and NaN fails every comparison, so the check
// is !(0 < v < +Inf).
func parseSize(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && !(v > 0 && v < math.Inf(1)) {
		err = fmt.Errorf("size %v is not positive and finite", v)
	}
	return v, err
}
