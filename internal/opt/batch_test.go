package opt

import (
	"math"
	"reflect"
	"testing"

	"datamime/internal/stats"
)

func TestNextBatchDistinctPoints(t *testing.T) {
	space := MustSpace(Param{Name: "a", Lo: 0, Hi: 1}, Param{Name: "b", Lo: 0, Hi: 1})
	bo := NewBayesOpt(space, BayesOptConfig{Seed: 1, InitPoints: 4, Candidates: 128})
	rng := stats.NewRNG(2)
	f := quadratic([]float64{0.4, 0.6}, 0, rng)
	// Exhaust the initial design first.
	for i := 0; i < 4; i++ {
		x := bo.Next()
		bo.Observe(x, f(x))
	}
	batch := bo.NextBatch(4)
	if len(batch) != 4 {
		t.Fatalf("batch size %d", len(batch))
	}
	// Constant-liar batches must not propose (near-)identical points.
	for i := 0; i < len(batch); i++ {
		for j := i + 1; j < len(batch); j++ {
			if dist(batch[i], batch[j]) < 1e-6 {
				t.Fatalf("batch points %d and %d identical: %v", i, j, batch[i])
			}
		}
	}
	// The lies must have been rolled back.
	if len(bo.obs) != 4 {
		t.Fatalf("liar observations leaked: %d", len(bo.obs))
	}
}

func TestNextBatchDealsInitialDesign(t *testing.T) {
	space := MustSpace(Param{Name: "a", Lo: 0, Hi: 1})
	bo := NewBayesOpt(space, BayesOptConfig{Seed: 3, InitPoints: 6})
	batch := bo.NextBatch(4)
	if len(batch) != 4 {
		t.Fatalf("batch size %d", len(batch))
	}
	if len(bo.pending) != 2 {
		t.Fatalf("pending design = %d, want 2", len(bo.pending))
	}
}

func TestNextBatchSizeOne(t *testing.T) {
	space := MustSpace(Param{Name: "a", Lo: 0, Hi: 1})
	bo := NewBayesOpt(space, BayesOptConfig{Seed: 4})
	if got := bo.NextBatch(1); len(got) != 1 {
		t.Fatalf("k=1 batch size %d", len(got))
	}
	if got := bo.NextBatch(0); len(got) != 1 {
		t.Fatalf("k=0 batch size %d", len(got))
	}
}

// TestPlannedIgnoresObservations is the Planner contract: while Planned() >=
// k, the NextBatch sequence with every Observe deferred equals the sequence
// with each batch observed before the next is asked for, and the optimizer
// it leaves proposes the same batch after. BayesOpt's Planned() counts down
// as its design points are dealt out; random search's never does.
func TestPlannedIgnoresObservations(t *testing.T) {
	space := MustSpace(Param{Name: "a", Lo: 0, Hi: 1}, Param{Name: "b", Lo: 0, Hi: 1}, Param{Name: "c", Lo: 0, Hi: 1})
	f := quadratic([]float64{0.3, 0.6, 0.5}, 0, stats.NewRNG(1))
	for _, tc := range []struct {
		name string
		make func() Planner
		// planned is Planned() before each deferred batch of k, then after
		// the last.
		planned []int
	}{
		{"bayesopt", func() Planner {
			return NewBayesOpt(space, BayesOptConfig{Seed: 2, InitPoints: 12, Candidates: 64})
		}, []int{12, 7, 2}},
		{"random", func() Planner { return NewRandomSearch(space, 2) },
			[]int{math.MaxInt, math.MaxInt, math.MaxInt, math.MaxInt}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const k = 5
			interleaved, deferred := tc.make(), tc.make()
			var want, got [][]float64
			for _, p := range tc.planned[:len(tc.planned)-1] {
				batch := interleaved.NextBatch(k)
				for _, x := range batch {
					interleaved.Observe(x, f(x))
				}
				want = append(want, batch...)
				if n := deferred.Planned(); n != p {
					t.Fatalf("Planned() = %d before batch %d, want %d", n, len(got)/k, p)
				}
				got = append(got, deferred.NextBatch(k)...)
			}
			if n, p := deferred.Planned(), tc.planned[len(tc.planned)-1]; n != p {
				t.Fatalf("Planned() = %d after the last batch, want %d", n, p)
			}
			for _, x := range got {
				deferred.Observe(x, f(x))
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("deferred observations moved the proposals:\ninterleaved %v\ndeferred    %v", want, got)
			}
			if a, b := interleaved.NextBatch(k), deferred.NextBatch(k); !reflect.DeepEqual(a, b) {
				t.Fatalf("the batch after differs:\ninterleaved %v\ndeferred    %v", a, b)
			}
		})
	}
}

func TestRandomSearchBatch(t *testing.T) {
	space := MustSpace(Param{Name: "a", Lo: 0, Hi: 1})
	rs := NewRandomSearch(space, 5)
	batch := rs.NextBatch(8)
	if len(batch) != 8 {
		t.Fatalf("batch size %d", len(batch))
	}
}

func TestBatchBayesOptStillConverges(t *testing.T) {
	space := MustSpace(Param{Name: "a", Lo: 0, Hi: 1}, Param{Name: "b", Lo: 0, Hi: 1})
	rng := stats.NewRNG(6)
	f := quadratic([]float64{0.25, 0.75}, 0, rng)
	bo := NewBayesOpt(space, BayesOptConfig{Seed: 7, Candidates: 256})
	for round := 0; round < 12; round++ {
		batch := bo.NextBatch(4)
		for _, x := range batch {
			bo.Observe(x, f(x))
		}
	}
	_, best, _ := bo.Best()
	if best > 0.02 {
		t.Fatalf("batch BO best after 48 evals = %g", best)
	}
}

func TestFallbackBatch(t *testing.T) {
	space := MustSpace(Param{Name: "a", Lo: 0, Hi: 1})
	rng := stats.NewRNG(8)
	// BatchOptimizer passes through.
	bo := NewBayesOpt(space, BayesOptConfig{Seed: 9, InitPoints: 5})
	if got := FallbackBatch(bo, space, 3, rng); len(got) != 3 {
		t.Fatalf("passthrough batch %d", len(got))
	}
	// Non-batch optimizers get jittered proposals in the unit cube.
	an := NewAnneal(space, 10, 1, 0.9)
	got := FallbackBatch(an, space, 5, rng)
	if len(got) != 5 {
		t.Fatalf("fallback batch %d", len(got))
	}
	for _, x := range got {
		for _, v := range x {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("fallback point out of cube: %v", x)
			}
		}
	}
}

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
