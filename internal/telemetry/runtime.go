package telemetry

import "runtime"

// RegisterRuntimeMetrics adds Go runtime health collectors to reg under
// <prefix>_go_*: goroutine count, heap bytes in use, cumulative GC pause
// time, GC cycle count, and GOMAXPROCS. Values are read at scrape time via
// callback collectors, so an idle registry costs nothing. Both datamimed and
// datamime-worker expose these, each at its own /metrics, which is what makes
// memory leaks and GC pressure on a remote machine visible.
func RegisterRuntimeMetrics(reg *Registry, prefix string) {
	reg.NewGaugeFunc(prefix+"_go_goroutines",
		"Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.NewGaugeFunc(prefix+"_go_gomaxprocs",
		"GOMAXPROCS: OS threads available for Go code.",
		func() float64 { return float64(runtime.GOMAXPROCS(0)) })
	reg.NewGaugeFunc(prefix+"_go_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	reg.NewCounterFunc(prefix+"_go_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause time.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.PauseTotalNs) / 1e9
		})
	reg.NewCounterFunc(prefix+"_go_gc_cycles_total",
		"Completed GC cycles (runtime.MemStats.NumGC).",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.NumGC)
		})
}
