package profile

import (
	"fmt"
	"testing"

	"datamime/internal/datagen"
	"datamime/internal/sim"
)

// BenchmarkProfilerSweep measures one full profile — the main run plus the
// way-curve sweep — at different worker counts. This is the CI-gated
// benchmark: on a multi-core runner workers=4 must beat workers=1 by ~2×
// (the sweep is embarrassingly parallel) and workers=2 sits in between; on a
// single core the pool is clamped and all three are within noise. The
// profile itself is identical at every worker count. disableWorkerClamp is
// deliberately NOT set: the benchmark measures the sweep as shipped, so on
// hosts with fewer cores than workers it reports the clamped reality.
//
// Those rows profile an 8 000-key store, where the dataset warm is a fifth
// of a run. The generator-size row profiles what a search evaluates: a store
// of the memcached generator's 110 000 keys under harness.Quick()'s budgets
// (the numbers are repeated here because harness imports this package),
// where build and warm are nine tenths of a run — the row that sees a change
// to either. It profiles a datagen.Memcached candidate, which builds through
// kvstore.Shared (one population, seven copies of the value halves), so it is
// also the row that sees the generator's build stop being shared.
func BenchmarkProfilerSweep(b *testing.B) {
	b.Run("generator-size", func(b *testing.B) {
		b.ReportAllocs()
		pr := New(sim.Broadwell())
		pr.WindowCycles, pr.Windows, pr.WarmupWindows = 200_000, 16, 3
		pr.CurveWindows, pr.CurvePoints = 3, 6
		gen := datagen.Memcached()
		for i := 0; i < b.N; i++ {
			// A candidate as the search makes one: its Benchmark keeps one
			// population (kvstore.Shared) for the seven runs of its sweep.
			// Keys ≈ 30 B, values ≈ 600 B, 90 % GETs, as in sim's BenchmarkWarm.
			bench := gen.Benchmark([]float64{100_000, 0.9, 30, 8, 600, 100})
			if _, err := pr.Profile(bench, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
	bench := kvBenchmark(256, 60_000)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			pr := fastProfiler()
			pr.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := pr.Profile(bench, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
