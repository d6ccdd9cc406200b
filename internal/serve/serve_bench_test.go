package serve

import (
	"testing"

	"multiscatter/internal/obs"
)

// BenchmarkServeConcurrentJobs measures service throughput: 64 small
// deployment jobs per iteration submitted at once and run to
// completion against the shared pool. Every iteration takes fresh
// seeds, so no job is a repeat the manager could serve from its reuse
// index: this measures simulation. Reported via msbench alongside the
// engine benchmarks; the deterministic sim-side numbers for the same
// workload live in the msbench "serve" report section.
func BenchmarkServeConcurrentJobs(b *testing.B) {
	jobs := BenchJobs(64)
	m := NewManager(Config{
		Limits: Limits{MaxRunning: 16, MaxQueue: len(jobs)},
		Obs:    obs.NewRegistry(),
	})
	defer m.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitted := make([]*Job, 0, len(jobs))
		for k, jc := range jobs {
			jc.Seed = int64(i*len(jobs) + k + 1)
			j, err := m.Submit(jc)
			if err != nil {
				b.Fatal(err)
			}
			submitted = append(submitted, j)
		}
		for _, j := range submitted {
			<-j.Done()
			if j.State() != StateDone {
				b.Fatalf("%s: %s %s", j.ID, j.State(), j.Err())
			}
			if j.Status().ReusedFrom != "" {
				b.Fatalf("%s reused a result; the benchmark must simulate", j.ID)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(jobs)*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkServeReuse measures the reuse path: the same 64 jobs, run
// once before the timer starts, are resubmitted every iteration and
// served their stored results at admission.
func BenchmarkServeReuse(b *testing.B) {
	jobs := BenchJobs(64)
	m := NewManager(Config{
		Limits: Limits{MaxRunning: 16, MaxQueue: len(jobs)},
		Obs:    obs.NewRegistry(),
	})
	defer m.Close()
	for _, jc := range jobs {
		j, err := m.Submit(jc)
		if err != nil {
			b.Fatal(err)
		}
		<-j.Done()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, jc := range jobs {
			j, err := m.Submit(jc)
			if err != nil {
				b.Fatal(err)
			}
			if j.Status().ReusedFrom == "" {
				b.Fatalf("%s was not reused", j.ID)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(jobs)*b.N)/b.Elapsed().Seconds(), "jobs/s")
}
