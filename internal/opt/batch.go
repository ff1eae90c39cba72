package opt

import "datamime/internal/stats"

// BatchOptimizer is implemented by optimizers that can propose several
// points at once for parallel evaluation. The paper notes that
// "parallelizing the search process is possible by using parallel Bayesian
// optimization" and leaves it to future work (§IV); this implements it.
type BatchOptimizer interface {
	Optimizer
	// NextBatch proposes k points to evaluate concurrently.
	NextBatch(k int) [][]float64
}

// NextBatch implements batch proposals for BayesOpt with the constant-liar
// strategy (Ginsbourger et al.): after selecting each point, pretend it was
// observed at the current best value ("the lie"), refit, and select the
// next. This pushes subsequent proposals away from pending evaluations, so
// a batch explores k distinct promising regions instead of k copies of the
// EI maximizer.
func (b *BayesOpt) NextBatch(k int) [][]float64 {
	if k <= 1 {
		return [][]float64{b.Next()}
	}
	// Initial-design points can be dealt out directly.
	var batch [][]float64
	for len(batch) < k && len(b.pending) > 0 {
		batch = append(batch, b.pending[0])
		b.pending = b.pending[1:]
	}
	if len(batch) == k {
		return batch
	}
	// Constant liar: temporarily append lies to the history, then roll
	// them back. The surrogate cache is snapshotted alongside — factors
	// are immutable, so the snapshot is just the entry structs — and
	// restored with the rollback, discarding lie rows (and any rebuild the
	// lies provoked) so the cache state a later Observe extends is exactly
	// the pre-batch state.
	_, bestY, haveBest := b.Best()
	if b.cache == nil {
		b.cache = newSurrogateCache()
	}
	saved := b.cache.snapshot()
	lieCount := 0
	defer func() {
		if lieCount > 0 {
			b.obs = b.obs[:len(b.obs)-lieCount]
			b.cache.restore(saved)
		}
	}()
	for len(batch) < k {
		x := b.Next()
		batch = append(batch, x)
		if haveBest {
			lie := append([]float64(nil), x...)
			b.obs = append(b.obs, Observation{X: lie, Y: bestY})
			lieCount++
		}
	}
	return batch
}

// NextBatch for RandomSearch: independent uniform draws.
func (r *RandomSearch) NextBatch(k int) [][]float64 {
	if k < 1 {
		k = 1
	}
	out := make([][]float64, k)
	for i := range out {
		out[i] = r.Next()
	}
	return out
}

var (
	_ BatchOptimizer = (*BayesOpt)(nil)
	_ BatchOptimizer = (*RandomSearch)(nil)
	_ TimingReporter = (*BayesOpt)(nil)
)

// FallbackBatch adapts any sequential optimizer to batch proposals by
// jittering its single proposal — used when a custom Optimizer does not
// implement BatchOptimizer.
func FallbackBatch(o Optimizer, space *Space, k int, rng *stats.RNG) [][]float64 {
	if bo, ok := o.(BatchOptimizer); ok {
		return bo.NextBatch(k)
	}
	if k < 1 {
		k = 1
	}
	out := make([][]float64, 0, k)
	base := o.Next()
	out = append(out, base)
	for len(out) < k {
		x := make([]float64, len(base))
		for i, v := range base {
			x[i] = stats.Clamp(v+0.05*rng.NormFloat64(), 0, 1)
		}
		out = append(out, x)
	}
	return out
}
