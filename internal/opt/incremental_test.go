package opt

import (
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
	if f.N != 1 || len(f.Data) != 1 {
		t.Fatalf("refused append left %d rows (%d entries), want 1", f.N, len(f.Data))
	}
}

// TestEntryFallbackOnAppendFailure: when the bordered append hits a
// non-positive pivot, the entry must recover via a full refactorization
// (escalating jitter as needed) and end bit-identical to a from-scratch
// rebuild.
func TestEntryFallbackOnAppendFailure(t *testing.T) {
	xs := [][]float64{{0.3, 0.7}, {0.9, 0.1}, {0.3, 0.7}} // last duplicates the first
	// Hand-craft an entry whose factor carries no jitter, so appending the
	// duplicate row fails, forcing the rebuild path.
	k := Matern52{Variance: 1, LengthScale: 0.4}
	var f linalg.Tri
	for i := 0; i < 2; i++ {
		if err := appendRow(&f, k, xs, i, 0); err != nil {
			t.Fatal(err)
		}
	}
	e := surrogateEntry{ls: 0.4, nf: 1e-4, chol: f, jitter: 0, level: 0, n: 2, ok: true}
	e.sync(xs)
	if !e.ok || e.n != 3 {
		t.Fatalf("entry did not recover: ok=%v n=%d", e.ok, e.n)
	}
	if e.jitter < unitJitter(e.nf) {
		t.Fatalf("rebuild used jitter %g below the base", e.jitter)
	}
	// The recovered factor must equal a pure from-scratch rebuild.
	ref := surrogateEntry{ls: 0.4, nf: 1e-4}
	ref.rebuild(xs)
	if !ref.ok || ref.level != e.level || ref.jitter != e.jitter {
		t.Fatalf("fallback state (%d, %g) != scratch state (%d, %g)", e.level, e.jitter, ref.level, ref.jitter)
	}
	for i := range e.chol.Data {
		if e.chol.Data[i] != ref.chol.Data[i] {
			t.Fatal("fallback factor diverged from scratch rebuild")
		}
	}
}

// TestEscalatedEntryRefactorizesFromBase: once an entry sits above the base
// jitter level, new observations must refactorize from the base level so
// the landing state is a function of the observation set, not the path.
func TestEscalatedEntryRefactorizesFromBase(t *testing.T) {
	xs, _ := randomObs(12, 6, 2)
	e := surrogateEntry{ls: 0.4, nf: 1e-3}
	e.rebuild(xs[:5])
	if !e.ok {
		t.Fatal("initial rebuild failed")
	}
	e.level, e.jitter = 2, e.jitter*100 // simulate prior escalation
	e.sync(xs[:6])
	if !e.ok {
		t.Fatal("sync failed")
	}
	if e.level != 0 {
		t.Fatalf("level %d after rebuild of well-conditioned points, want 0 (base)", e.level)
	}
	ref := surrogateEntry{ls: 0.4, nf: 1e-3}
	ref.rebuild(xs[:6])
	for i := range e.chol.Data {
		if e.chol.Data[i] != ref.chol.Data[i] {
			t.Fatal("escalated-entry rebuild diverged from scratch")
		}
	}
}

// TestParallelScoringDeterminism: two optimizers differing only in
// acquisition worker count must emit identical proposal streams.
func TestParallelScoringDeterminism(t *testing.T) {
	mk := func(workers int) *BayesOpt {
		space, err := NewSpace(
			Param{Name: "a", Lo: 0, Hi: 1},
			Param{Name: "b", Lo: 0, Hi: 1},
			Param{Name: "c", Lo: 0, Hi: 1},
		)
		if err != nil {
			t.Fatal(err)
		}
		return NewBayesOpt(space, BayesOptConfig{Seed: 11, Candidates: 128, Workers: workers})
	}
	serial, parallel := mk(1), mk(8)
	obj := func(x []float64) float64 { return math.Sin(4*x[0]) + x[1] - x[2]*x[2] }
	for step := 0; step < 18; step++ {
		xa, xb := serial.Next(), parallel.Next()
		for d := range xa {
			if xa[d] != xb[d] {
				t.Fatalf("step %d dim %d: serial %v != parallel %v", step, d, xa, xb)
			}
		}
		y := obj(xa)
		serial.Observe(xa, y)
		parallel.Observe(xb, y)
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
// a lie duplicates an observed point. Jitter escalation cannot be reached
// from the grid's base jitters (an exact duplicate factorizes at the 1e-4
// floor, and at 1e-10), so that row also escalates one entry by hand before
// the batch, in both optimizers, as TestEscalatedEntryRefactorizesFromBase
// does: the batch's first lie rebuilds it into fresh storage from the base
// level, the rollback restores the escalated entry over that rebuild, and
// the real observation rebuilds it again.
func TestNextBatchRollsBackSurrogateCache(t *testing.T) {
	for _, row := range []struct {
		name     string
		design   [][]float64 // observed in place of the initial design, when set
		f        func(x []float64) float64
		escalate bool
	}{
		{name: "distinct lies", f: func(x []float64) float64 { return math.Cos(3*x[0]) + x[1] }},
		{
			name:     "lie duplicates an observation",
			design:   [][]float64{{0, 0}, {1, 0}, {0, 1}, {0.5, 0.5}},
			f:        func(x []float64) float64 { return x[0] + x[1] },
			escalate: true,
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			mk := func() *BayesOpt {
				space := MustSpace(Param{Name: "a", Lo: 0, Hi: 1}, Param{Name: "b", Lo: 0, Hi: 1})
				return NewBayesOpt(space, BayesOptConfig{Seed: 3, Candidates: 64, InitPoints: 4, Workers: 1})
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
			const escalated = 13 // (ls 0.4, nf 1e-3)
			for _, o := range []*BayesOpt{b, twin} {
				if _, err := o.fitSurrogate(); err != nil {
					t.Fatal(err)
				}
				if row.escalate {
					e := &o.cache.entries[escalated]
					chol, jitter, _, err := factorize(Matern52{Variance: 1, LengthScale: e.ls}, o.xs, 100*unitJitter(e.nf))
					if err != nil {
						t.Fatal(err)
					}
					e.chol, e.jitter, e.level = chol, jitter, 2
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
			if tm, _ := b.TakeTimings(); row.escalate && tm.CholeskyRebuilds == 0 {
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
				if e.n != ref.n || e.ok != ref.ok || e.level != ref.level || e.jitter != ref.jitter ||
					e.chol.N != ref.chol.N || !sameBits(e.chol.Data, ref.chol.Data) {
					t.Fatalf("entry %d (ls %g, nf %g) is not the rebuild on the real observations", i, e.ls, e.nf)
				}
			}
		})
	}
}
