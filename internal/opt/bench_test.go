package opt

import (
	"testing"

	"datamime/internal/stats"
)

// BenchmarkGPFit compares the per-iteration cost of the surrogate fit: the
// incremental cache (one bordered append per hyperparameter candidate, then
// an O(n²) scale-and-solve each) against the from-scratch grid search (24
// O(n³) refactorizations). The incremental case restores a snapshot each
// iteration so every b.N loop performs exactly one append per entry — the
// steady-state cost the search pays per new observation.
func BenchmarkGPFit(b *testing.B) {
	const n, dim = 64, 4
	xs, ys := randomObs(21, n, dim)

	b.Run("incremental", func(b *testing.B) {
		cache := newSurrogateCache()
		cache.sync(xs[:n-1])
		warm := cache.snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache.restore(warm)
			if _, err := cache.fit(xs, ys); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fitBestGP(xs, ys); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPropose is one proposal as a search at the paper's budget makes
// it: 200 observations over the 6-dimensional oracle space, the default pool
// of 1 088 candidates scored serially, and the diagnostics drained. Each
// iteration rewinds the surrogate cache to 199 observations, so every
// proposal pays the one factor append per grid entry a search pays; the
// proposal RNG runs on, so each iteration scores a fresh pool of the same
// size.
func BenchmarkPropose(b *testing.B) {
	const n = 200
	space := oracleSpace()
	bo := NewBayesOpt(space, BayesOptConfig{Seed: 26})
	rng := stats.NewRNG(200)
	for i := 0; i < n; i++ {
		x := space.Sample(rng)
		if i < bo.initPoints {
			x = bo.Next()
		}
		if i == n-1 {
			if _, err := bo.fitSurrogate(); err != nil {
				b.Fatal(err)
			}
		}
		bo.Observe(x, oracleObjective(space, x))
	}
	warm := bo.cache.snapshot()
	b.Run("n=200", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bo.cache.restore(warm)
			bo.Next()
			if _, ok := bo.TakeDiagnostics(); !ok {
				b.Fatal("no surrogate-backed proposal")
			}
		}
	})
}
