package opt

import (
	"math"

	"datamime/internal/stats"
)

// BatchOptimizer is implemented by optimizers that can propose several
// points at once for parallel evaluation. The paper notes that
// "parallelizing the search process is possible by using parallel Bayesian
// optimization" and leaves it to future work (§IV); this implements it.
type BatchOptimizer interface {
	Optimizer
	// NextBatch proposes k points to evaluate concurrently.
	NextBatch(k int) [][]float64
}

// Planner is a BatchOptimizer that knows how many of its next points are
// fixed already: they read no observation, so a search may ask for them
// before it has observed every earlier point and still receive exactly the
// points it would have received after. Optimizers that do not implement it
// (and FallbackBatch's jitter path) are asked only once every earlier point
// has been observed.
type Planner interface {
	BatchOptimizer
	// Planned is how many of the next points NextBatch deals out depend on
	// no observation, the ones already made or any still to come.
	Planned() int
}

// Planned implements Planner: the initial-design points not yet dealt out.
func (b *BayesOpt) Planned() int { return len(b.pending) }

// Planned implements Planner: every draw, since none reads the history.
func (r *RandomSearch) Planned() int { return math.MaxInt }

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
	_ Planner        = (*BayesOpt)(nil)
	_ Planner        = (*RandomSearch)(nil)
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
