package opt

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"datamime/internal/opt/linalg"
	"datamime/internal/stats"
)

// randomObs builds a deterministic observation stream over the unit cube.
func randomObs(seed uint64, n, dim int) ([][]float64, []float64) {
	rng := stats.NewRNG(seed)
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.Float64()
		}
		xs[i] = x
		// A smooth multimodal objective plus noise.
		ys[i] = math.Sin(5*x[0]) + x[1]*x[1] + 0.05*rng.NormFloat64()
	}
	return xs, ys
}

// TestIncrementalFitMatchesFromScratch is the tentpole agreement test: the
// cache-backed fit (bordered Cholesky appends + scaled unit factors) must
// agree with the from-scratch fitBestGP reference to 1e-9 in posterior
// mean, variance, and log marginal likelihood — at every history length as
// observations stream in one at a time.
func TestIncrementalFitMatchesFromScratch(t *testing.T) {
	xs, ys := randomObs(3, 40, 3)
	probes, _ := randomObs(4, 10, 3)
	cache := newSurrogateCache()
	for n := 2; n <= len(xs); n++ {
		inc, err := cache.fit(xs[:n], ys[:n])
		if err != nil {
			t.Fatalf("n=%d: incremental fit: %v", n, err)
		}
		ref, err := fitBestGP(xs[:n], ys[:n])
		if err != nil {
			t.Fatalf("n=%d: reference fit: %v", n, err)
		}
		if d := math.Abs(inc.LogMarginalLikelihood() - ref.LogMarginalLikelihood()); d > 1e-9 {
			t.Fatalf("n=%d: LML diverged by %g", n, d)
		}
		for pi, p := range probes {
			mi, si := inc.Predict(p)
			mr, sr := ref.Predict(p)
			if math.Abs(mi-mr) > 1e-9 || math.Abs(si-sr) > 1e-9 {
				t.Fatalf("n=%d probe %d: incremental (%.12g, %.12g) vs scratch (%.12g, %.12g)",
					n, pi, mi, si, mr, sr)
			}
		}
	}
}

// TestAppendBitIdenticalToRefactorization pins the stronger property the
// resume guarantee leans on: a factor grown row by row in place, as the
// surrogate entries grow theirs, is exactly the factor a from-scratch
// factorization of the full matrix yields — here the textbook recurrence,
// one column after another over a dense matrix, kept as the oracle of the
// one append recurrence.
func TestAppendBitIdenticalToRefactorization(t *testing.T) {
	xs, _ := randomObs(9, 25, 4)
	k := Matern52{Variance: 1, LengthScale: 0.4}
	const jitter = 1e-3

	var grown linalg.Tri
	for i := range xs {
		if err := appendRow(&grown, k, xs, i, jitter); err != nil {
			t.Fatal(err)
		}
	}

	n := len(xs)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			sum := k.Eval(xs[i], xs[j])
			if i == j {
				sum += jitter
			}
			for p := 0; p < j; p++ {
				sum -= l[i][p] * l[j][p]
			}
			if i == j {
				l[i][j] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if math.Float64bits(grown.At(i, j)) != math.Float64bits(l[i][j]) {
				t.Fatalf("factor (%d,%d): appended %v != scratch %v", i, j, grown.At(i, j), l[i][j])
			}
		}
	}
}

// TestCholeskyAppendRejectsNonPD: appending an exact duplicate row with no
// jitter makes the Schur complement zero, which must be rejected — the
// trigger for the exact-refactorization fallback — leaving the factor as it
// was.
func TestCholeskyAppendRejectsNonPD(t *testing.T) {
	xs := [][]float64{{0.3, 0.7}, {0.3, 0.7}}
	k := Matern52{Variance: 1, LengthScale: 0.4}
	var f linalg.Tri
	if err := appendRow(&f, k, xs, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := appendRow(&f, k, xs, 1, 0); err != linalg.ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
	if f.N != 1 || f.At(0, 0) != 1 {
		t.Fatalf("refused append left %d rows (L00 %g), want the one row [1]", f.N, f.At(0, 0))
	}
}

// TestEntryFallbackOnAppendFailure: when the bordered append hits a
// non-positive pivot, the entry falls back to a full refactorization, and
// when that fails too it is left !ok over the new observation set, exactly
// as a from-scratch rebuild leaves it, and counted as a rebuild. Only a
// noise fraction of 0, below the grid's, lets an exact duplicate do that.
func TestEntryFallbackOnAppendFailure(t *testing.T) {
	xs := [][]float64{{0.3, 0.7}, {0.9, 0.1}, {0.3, 0.7}, {0.5, 0.5}} // the third duplicates the first
	e := surrogateEntry{ls: 0.4}
	e.rebuild(xs[:2])
	if !e.ok {
		t.Fatal("two distinct points did not factorize")
	}
	if got := e.sync(xs[:3], &newRow{}); got != syncRebuilt || e.ok || e.n != 3 || e.chol.N != 0 {
		t.Fatalf("after the duplicate: sync %d, ok=%v n=%d rows=%d; want a rebuild, !ok, 3, 0", got, e.ok, e.n, e.chol.N)
	}
	ref := surrogateEntry{ls: 0.4}
	ref.rebuild(xs[:3])
	if ref.ok || ref.n != e.n || ref.chol.N != e.chol.N {
		t.Fatalf("scratch rebuild: ok=%v n=%d rows=%d, want the fallback's state", ref.ok, ref.n, ref.chol.N)
	}
	// A !ok entry never takes the append path: the next point rebuilds it.
	if got := e.sync(xs, &newRow{}); got != syncRebuilt || e.ok || e.n != 4 {
		t.Fatalf("after a fourth point: sync %d, ok=%v n=%d; want a rebuild, !ok, 4", got, e.ok, e.n)
	}
}

// TestNextBatchRollsBackSurrogateCache: a constant-liar batch appends its
// lie rows in place, past the end its snapshot recorded, and the rollback
// rewinds each factor's header over them. After the batch and one real
// observation, every entry must hold the factor a rebuild on the real
// observations gives, bit for bit — the real append overwrote the lie rows —
// and the next proposal must be a twin's that never batched.
//
// In the second row the incumbent sits on a corner of the cube, where local
// candidates clamp onto it, and the first proposal is the incumbent itself:
// a lie duplicates an observed point. An exact duplicate factorizes at the
// grid's noise fractions, so that row also fails one entry by hand before
// the batch, in both optimizers, as a factorization that did not succeed
// leaves it: the batch's first lie rebuilds it into fresh storage, the
// rollback restores the failed entry over that rebuild, and the real
// observation rebuilds it again.
func TestNextBatchRollsBackSurrogateCache(t *testing.T) {
	for _, row := range []struct {
		name   string
		design [][]float64 // observed in place of the initial design, when set
		f      func(x []float64) float64
		failed bool
	}{
		{name: "distinct lies", f: func(x []float64) float64 { return math.Cos(3*x[0]) + x[1] }},
		{
			name:   "lie duplicates an observation",
			design: [][]float64{{0, 0}, {1, 0}, {0, 1}, {0.5, 0.5}},
			f:      func(x []float64) float64 { return x[0] + x[1] },
			failed: true,
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			mk := func() *BayesOpt {
				space := MustSpace(Param{Name: "a", Lo: 0, Hi: 1}, Param{Name: "b", Lo: 0, Hi: 1})
				return NewBayesOpt(space, BayesOptConfig{Seed: 3, Candidates: 64, InitPoints: 4})
			}
			b, twin := mk(), mk()
			for i := 0; i < 6; i++ {
				x := b.Next()
				twin.Next()
				if i < len(row.design) {
					x = row.design[i]
				}
				b.Observe(x, row.f(x))
				twin.Observe(x, row.f(x))
			}
			const failed = 13 // (ls 0.4, nf 1e-3)
			for _, o := range []*BayesOpt{b, twin} {
				if _, err := o.fitSurrogate(); err != nil {
					t.Fatal(err)
				}
				if row.failed {
					e := &o.cache.entries[failed]
					e.chol, e.ok = linalg.Tri{}, false
				}
			}
			b.TakeTimings()

			batch := b.NextBatch(4)
			if len(batch) != 4 || len(b.obs) != 6 {
				t.Fatalf("batch of %d, %d observations after the rollback; want 4 and 6", len(batch), len(b.obs))
			}
			if row.design != nil && !slices.Equal(batch[0], row.design[0]) {
				t.Fatalf("first proposal %v is not the observed corner %v: no lie duplicates an observation", batch[0], row.design[0])
			}
			if tm, _ := b.TakeTimings(); row.failed && tm.CholeskyRebuilds == 0 {
				t.Fatal("no entry rebuilt during the batch")
			}
			b.Observe(batch[0], row.f(batch[0]))
			twin.Observe(batch[0], row.f(batch[0]))

			b.rng, twin.rng = stats.NewRNG(9), stats.NewRNG(9)
			if x, y := b.Next(), twin.Next(); !sameBits(x, y) {
				t.Fatalf("after the batch: proposal %v, the twin that never batched proposes %v", x, y)
			}
			for i, e := range b.cache.entries {
				ref := surrogateEntry{ls: e.ls, nf: e.nf}
				ref.rebuild(b.xs)
				if e.n != ref.n || e.ok != ref.ok ||
					!sameFactor(&e.chol, &ref.chol) {
					t.Fatalf("entry %d (ls %g, nf %g) is not the rebuild on the real observations", i, e.ls, e.nf)
				}
			}
		})
	}
}

// TestCacheMatchesScratchOnNearSingularInserts: over 60 random observation
// streams, dimensions 1 to 6 — each new point fresh, an exact duplicate of an
// earlier one, or a duplicate moved by 1 ulp or by 1e-12 to 1e-4 in one
// coordinate, arriving one at a time, several at once, or after a
// constant-liar rewind — every cache entry's factor, α and log-determinant
// equal, bit for bit, those of factorize run from scratch on the same
// observations. Then, in 1, 6 and 20 dimensions, 400 copies of one point and
// 400 points within 1e-9 of one stream in one at a time. Every entry must
// factorize at its own noise fraction (the grid's smallest is 1e-4, so every
// eigenvalue of C + nf·I is at least 1e-4), and its condition estimate must
// stay within (1 + nf)/nf. Under -short (CI's race step, where 400 points
// take most of a minute) the last rows hold 100 points.
func TestCacheMatchesScratchOnNearSingularInserts(t *testing.T) {
	if nf := slices.Min(hyperNoiseFracs); nf < 1e-4 {
		t.Fatalf("the grid's smallest noise fraction is %g: below 1e-4 an entry may fail to factorize from data", nf)
	}
	check := func(name string, cache *surrogateCache, xs [][]float64, ys []float64) {
		t.Helper()
		sd := math.Sqrt(max(variance(ys), 1e-12))
		_, centered := center(ys, nil)
		solve := func(l *linalg.Tri) ([]float64, float64) {
			a := make([]float64, l.N)
			l.SolveLower(sd, centered, a)
			l.SolveUpperT(sd, a, a)
			return a, l.LogDet(sd)
		}
		for _, e := range cache.entries {
			chol, err := factorize(Matern52{Variance: 1, LengthScale: e.ls}, xs, e.nf)
			if !e.ok || err != nil || e.n != len(xs) {
				t.Fatalf("%s, %d points, entry (%g, %g): cached ok %v over %d points, scratch error %v",
					name, len(xs), e.ls, e.nf, e.ok, e.n, err)
			}
			if !sameFactor(&e.chol, &chol) {
				t.Fatalf("%s, %d points, entry (%g, %g): cached factor differs from scratch", name, len(xs), e.ls, e.nf)
			}
			if c, bound := choleskyCondition(&e.chol), (1+e.nf)/e.nf; c > bound {
				t.Fatalf("%s, %d points, entry (%g, %g): condition estimate %g above (1+nf)/nf = %g", name, len(xs), e.ls, e.nf, c, bound)
			}
			ca, cd := solve(&e.chol)
			sa, sdet := solve(&chol)
			if !sameBits(ca, sa) || math.Float64bits(cd) != math.Float64bits(sdet) {
				t.Fatalf("%s, %d points, entry (%g, %g): α or log-determinant differs from scratch", name, len(xs), e.ls, e.nf)
			}
		}
	}

	rng := stats.NewRNG(11)
	for c := 0; c < 60; c++ {
		dim := 1 + rng.IntN(6)
		var xs [][]float64
		var ys []float64
		insert := func() {
			x := make([]float64, dim)
			for d := range x {
				x[d] = rng.Float64()
			}
			if len(xs) > 0 && rng.IntN(3) > 0 {
				copy(x, xs[rng.IntN(len(xs))])
				if rng.IntN(2) == 0 {
					d := rng.IntN(dim)
					if eps := [5]float64{0, 1e-12, 1e-8, 1e-6, 1e-4}[rng.IntN(5)]; eps == 0 {
						x[d] = math.Nextafter(x[d], 1-x[d])
					} else {
						x[d] = stats.Clamp(x[d]+eps, 0, 1)
					}
				}
			}
			xs = append(xs, x)
			ys = append(ys, rng.NormFloat64())
		}
		cache := newSurrogateCache()
		for len(xs) < 40 {
			switch rng.IntN(6) {
			case 0: // several rows arrive at once, as after a batch
				for k := 2 + rng.IntN(3); k > 0; k-- {
					insert()
				}
			case 1: // a lie is appended and rolled back, then the real row
				saved, n := cache.snapshot(), len(xs)
				insert()
				cache.sync(xs)
				xs, ys = xs[:n], ys[:n]
				cache.restore(saved)
				insert()
			default:
				insert()
			}
			cache.sync(xs)
			check(fmt.Sprintf("case %d", c), cache, xs, ys)
		}
	}

	points := 400
	if testing.Short() {
		points = 100
	}
	for _, dim := range []int{1, 6, 20} {
		for _, spread := range []float64{0, 1e-9} {
			anchor := make([]float64, dim)
			for d := range anchor {
				anchor[d] = 0.5 + 0.4*rng.Float64()
			}
			var xs [][]float64
			var ys []float64
			cache := newSurrogateCache()
			for len(xs) < points {
				x := slices.Clone(anchor)
				for d := range x {
					x[d] += spread * rng.Float64()
				}
				xs = append(xs, x)
				ys = append(ys, rng.NormFloat64())
				cache.sync(xs)
			}
			check(fmt.Sprintf("%d-dimensional, spread %g", dim, spread), cache, xs, ys)
		}
	}
}
