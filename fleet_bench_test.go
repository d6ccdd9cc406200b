// Fleet benchmarks: the concurrent multi-tag deployment engine at 100
// and 1000 tags, a 500-tag harvesting deployment and the 1000-tag,
// 256-receiver personal deployment, each at workers=1
// and workers=NumCPU, so the speedup of the sharded pool (and the
// determinism across pool sizes) is measurable with
// `go test -bench Fleet -benchtime 1x`. perf/fleet_bench.txt records
// the harvesting benchmark.
package multiscatter_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"multiscatter"
	"multiscatter/internal/excite"
	"multiscatter/internal/obs"
	"multiscatter/internal/sim"
)

// fleetBenchConfig builds an office-scenario deployment of n tags on a
// floor scaled to keep tag density realistic.
func fleetBenchConfig(n int, span time.Duration, workers int) multiscatter.FleetConfig {
	sc, err := excite.FindScenario("office")
	if err != nil {
		panic(err)
	}
	w, h := 30.0, 50.0
	if n > 100 {
		w, h = 60.0, 100.0
	}
	return multiscatter.FleetConfig{
		Sources:   sc.Sources,
		Tags:      multiscatter.PlaceGrid(n, w, h),
		Receivers: multiscatter.PlaceReceivers(4, w, h),
		Span:      span,
		Seed:      42,
		Workers:   workers,
	}
}

func benchmarkFleet(b *testing.B, n int, span time.Duration) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := fleetBenchConfig(n, span, workers)
			b.ReportAllocs()
			var delivered int
			for i := 0; i < b.N; i++ {
				res, err := multiscatter.RunFleet(cfg)
				if err != nil {
					b.Fatal(err)
				}
				delivered = res.Outcomes[sim.Delivered]
			}
			b.ReportMetric(float64(n), "tags")
			b.ReportMetric(float64(delivered), "delivered")
		})
	}
}

// BenchmarkFleetHarvest is msperf's fleet-harvest deployment as a
// FleetConfig: 500 solar-harvesting tags (500 lux, starting charged) on
// a 60×100 m office floor with 4 receivers, 4 dB shadowing and the
// phase-aware channel at a 200 Hz drift cap, over a 2 s span. Nearly
// every packet × tag pair is asleep, so it measures the energy path of
// identify.
func BenchmarkFleetHarvest(b *testing.B) {
	sc, err := excite.FindScenario("office")
	if err != nil {
		b.Fatal(err)
	}
	tags := multiscatter.PlaceGrid(500, 60, 100)
	for i := range tags {
		tags[i].Energy = &sim.EnergyConfig{Lux: 500, StartCharged: true}
	}
	ch := multiscatter.NewLoSChannel()
	ch.ShadowSigmaDB = 4
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := multiscatter.FleetConfig{
				Sources:   sc.Sources,
				Tags:      tags,
				Receivers: multiscatter.PlaceReceivers(4, 60, 100),
				Channel:   ch,
				Phase:     &multiscatter.FleetPhaseConfig{MaxDriftHz: 200},
				Span:      2 * time.Second,
				Seed:      42,
				Workers:   workers,
			}
			b.ReportAllocs()
			var res *multiscatter.FleetResult
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = multiscatter.RunFleet(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Events), "events")
			b.ReportMetric(float64(res.Outcomes[sim.TagAsleep]), "asleep")
		})
	}
}

func BenchmarkFleet100Tags(b *testing.B) {
	benchmarkFleet(b, 100, 2*time.Second)
}

func BenchmarkFleet1000Tags(b *testing.B) {
	benchmarkFleet(b, 1000, 2*time.Second)
}

// BenchmarkFleetPersonal is msperf's fleet-personal deployment as a
// FleetConfig: 1000 tags and 256 receivers on a 60×100 m office floor
// over a 2 s span, where identify, contention and downlink all do real
// work. Besides ms/op it reports each phase's mean wall time per run
// (fleet.<phase> stages, docs/OBSERVABILITY.md).
func BenchmarkFleetPersonal(b *testing.B) {
	sc, err := excite.FindScenario("office")
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			reg := obs.NewRegistry()
			cfg := multiscatter.FleetConfig{
				Sources:   sc.Sources,
				Tags:      multiscatter.PlaceGrid(1000, 60, 100),
				Receivers: multiscatter.PlaceReceivers(256, 60, 100),
				Span:      2 * time.Second,
				Seed:      42,
				Workers:   workers,
				Obs:       reg,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := multiscatter.RunFleet(cfg); err != nil {
					b.Fatal(err)
				}
			}
			stages := reg.Snapshot().Stages
			for _, phase := range []string{"timeline", "prefill", "identify", "contention", "downlink", "reduce"} {
				st := stages["fleet."+phase]
				b.ReportMetric(float64(st.TotalNS)/float64(b.N)/1e6, phase+"-ms")
			}
		})
	}
}
