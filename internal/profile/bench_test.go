package profile

import (
	"fmt"
	"testing"

	"datamime/internal/apps/kvstore"
	"datamime/internal/sim"
	"datamime/internal/stats"
	"datamime/internal/trace"
	"datamime/internal/workload"
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
// to either.
func BenchmarkProfilerSweep(b *testing.B) {
	b.Run("generator-size", func(b *testing.B) {
		b.ReportAllocs()
		bench := workload.Benchmark{
			Name: "kv-generator-size", QPS: 100_000,
			NewServer: func(layout *trace.CodeLayout, seed uint64) workload.Server {
				return kvstore.New(kvstore.Config{
					NumKeys:   110_000,
					KeySize:   stats.Normal{Mu: 30, Sigma: 8, Min: 4},
					ValueSize: stats.Normal{Mu: 600, Sigma: 100, Min: 1},
					GetRatio:  0.9,
				}, layout, seed)
			},
		}
		pr := New(sim.Broadwell())
		pr.WindowCycles, pr.Windows, pr.WarmupWindows = 200_000, 16, 3
		pr.CurveWindows, pr.CurvePoints = 3, 6
		for i := 0; i < b.N; i++ {
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
