package profile

import (
	"testing"

	"datamime/internal/datagen"
	"datamime/internal/sim"
)

// BenchmarkProfilerSweep measures one full profile — the pass that carries
// the main lane and every way-curve lane. This is the CI-gated benchmark.
//
// The 8000-keys rows profile an 8 000-key store, where the dataset warm is
// a fifth of the pass; main-only is the same profile without its curve
// lanes (SkipCurves), so the two rows' gap is what the curve lanes cost.
// The generator-size row profiles what a search evaluates: a store of the
// memcached generator's 110 000 keys under harness.Quick()'s budgets (the
// numbers are repeated here because harness imports this package), where
// build and warm are most of a profile — the row that sees a change to
// either.
func BenchmarkProfilerSweep(b *testing.B) {
	b.Run("generator-size", func(b *testing.B) {
		b.ReportAllocs()
		pr := New(sim.Broadwell())
		pr.WindowCycles, pr.Windows, pr.WarmupWindows = 200_000, 16, 3
		pr.CurveWindows, pr.CurvePoints = 3, 6
		gen := datagen.Memcached()
		for i := 0; i < b.N; i++ {
			// A candidate as the search makes one. Keys ≈ 30 B, values
			// ≈ 600 B, 90 % GETs, as in sim's BenchmarkWarm.
			bench := gen.Benchmark([]float64{100_000, 0.9, 30, 8, 600, 100})
			if _, err := pr.Profile(bench, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
	bench := kvBenchmark(256, 60_000)
	for _, row := range []struct {
		name string
		skip bool
	}{{"8000-keys", false}, {"8000-keys-main-only", true}} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			pr := fastProfiler()
			pr.SkipCurves = row.skip
			for i := 0; i < b.N; i++ {
				if _, err := pr.Profile(bench, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
