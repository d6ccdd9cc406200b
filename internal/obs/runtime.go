package obs

import "runtime"

// CollectRuntime samples Go runtime health into gauges on reg — the
// process-level counterpart of the pipeline metrics. It is a
// collect-on-demand snapshot: its caller (msserve's /metrics/prom
// scrape path) invokes it right before reading the registry, so the
// gauges are as fresh as the scrape. ReadMemStats costs a brief
// stop-the-world, which is fine at scrape cadence and far too
// expensive for any per-packet path.
//
// Gauges set:
//
//	runtime.goroutines            live goroutine count
//	runtime.gomaxprocs            scheduler parallelism
//	runtime.heap_alloc_bytes      live heap bytes
//	runtime.heap_sys_bytes        heap bytes held from the OS
//	runtime.heap_objects          live heap objects
//	runtime.gc_runs               completed GC cycles
//	runtime.gc_pause_total_ms     cumulative stop-the-world pause
//	runtime.gc_last_pause_ms      most recent pause
func CollectRuntime(reg *Registry) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.Gauge("runtime.goroutines").Set(float64(runtime.NumGoroutine()))
	reg.Gauge("runtime.gomaxprocs").Set(float64(runtime.GOMAXPROCS(0)))
	reg.Gauge("runtime.heap_alloc_bytes").Set(float64(ms.HeapAlloc))
	reg.Gauge("runtime.heap_sys_bytes").Set(float64(ms.HeapSys))
	reg.Gauge("runtime.heap_objects").Set(float64(ms.HeapObjects))
	reg.Gauge("runtime.gc_runs").Set(float64(ms.NumGC))
	reg.Gauge("runtime.gc_pause_total_ms").Set(float64(ms.PauseTotalNs) / 1e6)
	if ms.NumGC > 0 {
		last := ms.PauseNs[(ms.NumGC+255)%256]
		reg.Gauge("runtime.gc_last_pause_ms").Set(float64(last) / 1e6)
	}
}
