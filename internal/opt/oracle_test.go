package opt

import (
	"math"
	"testing"
)

// bitFold folds 64-bit words into one value, in order. Two searches with
// equal folds made the same proposals and reported the same diagnostics,
// bit for bit. A proposals-only fold leaves PoolMeanEI out, the one
// reported figure a change to how the pool is scored may redefine.
type bitFold struct {
	h             uint64
	proposalsOnly bool
}

func (f *bitFold) add(v uint64) {
	f.h = (f.h ^ v) * 0x9e3779b97f4a7c15
	f.h ^= f.h >> 29
}

func (f *bitFold) point(x []float64) {
	f.add(uint64(len(x)))
	for _, v := range x {
		f.add(math.Float64bits(v))
	}
}

// window folds what a proposal left to drain: every Diagnostics field and
// the exact factor-sync counts of its Timings (the clocks are not folded).
func (f *bitFold) window(b *BayesOpt) {
	d, ok := b.TakeDiagnostics()
	if !ok {
		f.add(0)
	} else {
		for _, fl := range d.fields() {
			if f.proposalsOnly && fl.f == &d.PoolMeanEI {
				continue
			}
			if fl.i != nil {
				f.add(uint64(*fl.i))
			} else {
				f.add(math.Float64bits(*fl.f))
			}
		}
	}
	if tm, ok := b.TakeTimings(); ok {
		f.add(uint64(tm.Proposals))
		f.add(uint64(tm.CholeskyAppends))
		f.add(uint64(tm.CholeskyRebuilds))
	}
}

// oracleSpace is shaped like the memcached generator's Table III space: a
// log-scaled rate, a linear ratio, two integer sizes and two log-scaled
// integer sizes.
func oracleSpace() *Space {
	return MustSpace(
		Param{Name: "qps", Lo: 5_000, Hi: 400_000, Log: true},
		Param{Name: "get_ratio", Lo: 0, Hi: 1},
		Param{Name: "key_mu", Lo: 8, Hi: 160, Integer: true},
		Param{Name: "key_sigma", Lo: 1, Hi: 48, Integer: true},
		Param{Name: "val_mu", Lo: 16, Hi: 6_000, Log: true, Integer: true},
		Param{Name: "val_sigma", Lo: 1, Hi: 2_000, Log: true, Integer: true},
	)
}

// oracleObjective is a fixed synthetic error over the parameters as a
// generator sees them (integer parameters rounded, so it has plateaus): a
// distance to a target point in each parameter's own scale plus a ripple.
func oracleObjective(space *Space, u []float64) float64 {
	x := space.Denormalize(u)
	target := [6]float64{60_000, 0.8, 40, 10, 900, 300}
	var s float64
	for i, p := range space.Params {
		a, t, lo, hi := x[i], target[i], p.Lo, p.Hi
		if p.Log {
			a, t, lo, hi = math.Log(a), math.Log(t), math.Log(lo), math.Log(hi)
		}
		d := (a - t) / (hi - lo)
		s += d * d
	}
	return math.Sqrt(s) + 0.05*math.Sin(9*u[0])*math.Cos(7*u[3])
}

// oracleSearch makes iters sequential proposals at the default candidate
// pool; 200 is the paper's budget.
func oracleSearch(iters int, proposalsOnly bool) uint64 {
	space := oracleSpace()
	b := NewBayesOpt(space, BayesOptConfig{Seed: 26})
	f := bitFold{proposalsOnly: proposalsOnly}
	for i := 0; i < iters; i++ {
		x := b.Next()
		f.point(x)
		f.window(b)
		b.Observe(x, oracleObjective(space, x))
	}
	x, y, _ := b.Best()
	f.point(x)
	f.add(math.Float64bits(y))
	return f.h
}

// oracleBatchSearch proposes in constant-liar batches of four until 64
// points are observed.
func oracleBatchSearch(proposalsOnly bool) uint64 {
	space := oracleSpace()
	b := NewBayesOpt(space, BayesOptConfig{Seed: 27})
	f := bitFold{proposalsOnly: proposalsOnly}
	for len(b.obs) < 64 {
		batch := b.NextBatch(4)
		for _, x := range batch {
			f.point(x)
		}
		f.window(b)
		for _, x := range batch {
			b.Observe(x, oracleObjective(space, x))
		}
	}
	return f.h
}

// TestProposalOracle: the optimizer proposes, and reports, what it did
// before candidates were scored in blocks against packed factors grown in
// place (commit f126f77). The literals were recorded on that tree, and
// re-recorded since when PoolMeanEI became the mean EI of a fixed
// 64-candidate sample (TestProposalsOnlyOracle shows nothing else moved),
// and when the jitter-escalation level left Diagnostics and Timings: on
// commit 3751f0a, by a fold that skipped the two words and failed had
// either been non-zero. Regenerate them only for a change that means to
// move a proposal or a reported figure. Under -short (CI's race step) the 200-proposal row, slow
// under the race detector, gives way to a 64-proposal one.
func TestProposalOracle(t *testing.T) {
	for _, row := range []struct {
		name string
		long bool
		run  func() uint64
		want uint64
	}{
		{"sequential-200", true, func() uint64 { return oracleSearch(200, false) }, 0xa96ac1548ec9dd95},
		{"sequential-64", false, func() uint64 { return oracleSearch(64, false) }, 0xd11d1127555f48ac},
		{"batch4-64", false, func() uint64 { return oracleBatchSearch(false) }, 0x2d6d9f41c703edfb},
	} {
		if row.long && testing.Short() {
			continue
		}
		if got := row.run(); got != row.want {
			t.Errorf("%s: fold %#x, want %#x", row.name, got, row.want)
		}
	}
}

// TestProposalsOnlyOracle: every proposal, the incumbent and every
// diagnostics field but PoolMeanEI are what the optimizer made and reported
// when every candidate in the pool was scored in full (commit 297e696).
// The literals were recorded on that tree, and re-recorded on commit
// 3751f0a, as TestProposalOracle's were, when the jitter-escalation level
// left the fold; a change that prunes, reorders or regroups the scoring must
// leave them as they are.
func TestProposalsOnlyOracle(t *testing.T) {
	for _, row := range []struct {
		name string
		long bool
		run  func() uint64
		want uint64
	}{
		{"sequential-200", true, func() uint64 { return oracleSearch(200, true) }, 0x97d1d67082de9175},
		{"sequential-64", false, func() uint64 { return oracleSearch(64, true) }, 0x01903cb0746c630c},
		{"batch4-64", false, func() uint64 { return oracleBatchSearch(true) }, 0x2fafa47314864258},
	} {
		if row.long && testing.Short() {
			continue
		}
		if got := row.run(); got != row.want {
			t.Errorf("%s: fold %#x, want %#x", row.name, got, row.want)
		}
	}
}
