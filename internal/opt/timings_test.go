package opt

import (
	"math"
	"testing"
)

// TestTimingsCholeskyCounts: the fit-statistics window counts every factor
// sync — at least one full rebuild (the first fit) plus incremental appends
// as observations accumulate — and TakeTimings drains the window.
func TestTimingsCholeskyCounts(t *testing.T) {
	space, err := NewSpace(
		Param{Name: "a", Lo: 0, Hi: 1},
		Param{Name: "b", Lo: 0, Hi: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBayesOpt(space, BayesOptConfig{Seed: 3, Candidates: 64, InitPoints: 4})
	var appends, rebuilds int
	for i := 0; i < 12; i++ {
		x := b.Next()
		b.Observe(x, math.Cos(3*x[0])+x[1])
		if tm, ok := b.TakeTimings(); ok {
			appends += tm.CholeskyAppends
			rebuilds += tm.CholeskyRebuilds
		}
	}
	if rebuilds == 0 {
		t.Error("no Cholesky rebuilds counted (the first fit always rebuilds)")
	}
	if appends == 0 {
		t.Error("no incremental Cholesky appends counted")
	}

	// The window drains: with no proposals since the last take, the next
	// take reports zero factor syncs.
	if tm, ok := b.TakeTimings(); ok && (tm.CholeskyAppends != 0 || tm.CholeskyRebuilds != 0) {
		t.Errorf("drained window still reports appends=%d rebuilds=%d",
			tm.CholeskyAppends, tm.CholeskyRebuilds)
	}
}

// TestTimingsCountersSurviveRollback: constant-liar batch proposals
// snapshot/restore cache entries; the fit counters live on the cache itself,
// so lied-fit work still counts and nothing is un-counted by the rollback.
func TestTimingsCountersSurviveRollback(t *testing.T) {
	space, err := NewSpace(
		Param{Name: "a", Lo: 0, Hi: 1},
		Param{Name: "b", Lo: 0, Hi: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBayesOpt(space, BayesOptConfig{Seed: 3, Candidates: 64, InitPoints: 4})
	for i := 0; i < 6; i++ {
		x := b.Next()
		b.Observe(x, math.Cos(3*x[0])+x[1])
	}
	b.TakeTimings() // drain the serial-warmup counts
	if got := b.NextBatch(4); len(got) != 4 {
		t.Fatalf("batch size %d", len(got))
	}
	tm, ok := b.TakeTimings()
	if !ok {
		t.Fatal("no timings after a batch proposal")
	}
	if tm.CholeskyAppends+tm.CholeskyRebuilds == 0 {
		t.Error("batch proposal counted no factor syncs despite lied fits")
	}
}
