package opt

import (
	"fmt"
	"math"

	"datamime/internal/opt/linalg"
)

// The incremental surrogate fit exploits two structural facts about
// fitBestGP's grid search:
//
//  1. Every candidate's covariance is K = varY·(C + nf·I), where C is the
//     unit-variance Matérn-5/2 correlation matrix — only varY changes
//     between iterations. Since chol(s²·A) = s·chol(A) exactly in real
//     arithmetic, one cached factor L of C + nf·I per (lengthScale,
//     noiseFrac) candidate serves every iteration: the per-iteration work
//     is an O(n²) bordered append (linalg.Tri.Append) in place plus an
//     O(n²) solve against sd·L, instead of 24 O(n³) refactorizations. The
//     solve forms each element of sd·L as float64(L_ik·sd) where it reads
//     it, so selection scales nothing; only the winner's sd·L is
//     materialized, once per fit.
//  2. Tri.Append is the recurrence a from-scratch factorization runs row by
//     row, so the cached state is a pure function of the observation
//     sequence — append-by-append and rebuilt-after-resume paths land on the
//     same factor bit for bit, preserving the checkpoint/resume determinism
//     guarantee.
//
// C is positive semidefinite and every grid noise fraction is at least
// 1e-4, so every eigenvalue of C + nf·I is at least 1e-4, far above the
// factorization's round-off: each entry factorizes C + nf·I at its own
// noise fraction, and nothing in the cache adds to the diagonal.

// surrogateEntry caches one hyperparameter candidate's unit-variance
// factorization state.
type surrogateEntry struct {
	ls, nf float64
	chol   linalg.Tri // factor of C_n + nf·I, grown in place
	n      int        // observations covered by chol
	ok     bool       // false when C_n + nf·I did not factorize
}

// surrogateCache holds one entry per hyperparameter grid candidate, in grid
// order.
type surrogateCache struct {
	entries []surrogateEntry
	// Fit diagnostics since the last takeFitStats drain: how many entries
	// took the O(n²) append fast path vs the O(n³) rebuild fallback.
	// Counters live on the cache, not the entries, so constant-liar
	// rollbacks never un-count work done.
	appends  int
	rebuilds int
	// lastFit records which grid candidate won the most recent fit, for
	// the DiagnosticsReporter snapshot. Selection metadata only — never
	// read by the fit itself.
	lastFit fitSelection
	// Selection's buffers, reused from fit to fit: the centered
	// observations, and α of the entry being scored and of the best so far.
	centered, alpha, bestAlpha []float64
	// The winner's scaled factor and looStats' vector, also reused: the GP
	// a fit returns views scaled and bestAlpha, so it never outlives the
	// proposal it was fitted for.
	scaled linalg.Tri
	loo    []float64
	// row is sync's kernel row of the newest observation.
	row newRow
}

// newRow is the newest observation's unit-variance kernel row against the
// others, computed once per length scale: the grid's noise fractions of one
// scale share it, each with its own diagonal 1 + nf. Its squared distances
// are computed once for every scale.
type newRow struct {
	ls    float64 // the scale k holds; 0 when none since the last reset
	d2, k []float64
}

// reset forgets the row, for a sync over a new observation set.
func (r *newRow) reset() { r.ls = 0 }

// at returns the row of xs's last point against the others at length scale
// ls: k(x_n, x_j) for j < n, with Eval's bits.
func (r *newRow) at(xs [][]float64, ls float64) []float64 {
	n := len(xs) - 1
	if r.ls == ls {
		return r.k[:n]
	}
	if r.ls == 0 {
		r.d2 = grow(r.d2, n)
		for j, p := range xs[:n] {
			r.d2[j] = sqDist(xs[n], p)
		}
	}
	r.k = grow(r.k, n)
	k := Matern52{Variance: 1, LengthScale: ls}
	for lo := 0; lo < n; lo += boundEvery {
		hi := min(lo+boundEvery, n)
		k.fromSqBlock(r.d2[lo:hi], r.k[lo:hi])
	}
	r.ls = ls
	return r.k[:n]
}

// fitSelection is the winning hyperparameter candidate of one surrogate fit.
type fitSelection struct {
	ls, nf    float64
	signalVar float64
	lml       float64
	ok        bool
}

func newSurrogateCache() *surrogateCache {
	c := &surrogateCache{}
	for _, ls := range hyperLengthScales {
		for _, nf := range hyperNoiseFracs {
			c.entries = append(c.entries, surrogateEntry{ls: ls, nf: nf})
		}
	}
	return c
}

// snapshot captures the cache state by copying the entry structs, each
// factor's chunk list included. That is a full snapshot because a factor's
// first n rows are never rewritten and its chunks never move: an append
// writes past the end, and a rebuild moves the entry to fresh storage.
func (c *surrogateCache) snapshot() []surrogateEntry {
	return append([]surrogateEntry(nil), c.entries...)
}

// restore rewinds the cache to a snapshot — the constant-liar rollback. The
// lie rows appended after the snapshot stay in each factor's storage past
// the restored N, and the next real append overwrites them, or takes over
// the chunk they started. That is safe only while NextBatch, which runs on
// one goroutine, is the one taker of snapshots, and while no GP views an
// entry's storage: a fit's winner gets a scaled copy in the cache's own
// chunks.
func (c *surrogateCache) restore(s []surrogateEntry) {
	copy(c.entries, s)
}

// sync brings every entry's factor up to the observation set xs, counting
// how each one got there.
func (c *surrogateCache) sync(xs [][]float64) {
	c.row.reset()
	for i := range c.entries {
		switch c.entries[i].sync(xs, &c.row) {
		case syncAppended:
			c.appends++
		case syncRebuilt:
			c.rebuilds++
		}
	}
}

// takeFitStats returns the diagnostics accumulated since the previous call
// and resets them; the optimizer drains them into its Timings window.
func (c *surrogateCache) takeFitStats() (appends, rebuilds int) {
	appends, rebuilds = c.appends, c.rebuilds
	c.appends, c.rebuilds = 0, 0
	return appends, rebuilds
}

// Outcomes of one entry sync, for the cache's fit diagnostics.
const (
	syncNoop = iota
	syncAppended
	syncRebuilt
)

// sync brings the entry's factor up to xs, reading the newest
// observation's kernel row from row, which holds nothing of another
// observation set.
func (e *surrogateEntry) sync(xs [][]float64, row *newRow) int {
	n := len(xs)
	if e.n == n {
		return syncNoop // state for this observation set already decided
	}
	if e.ok && e.n == n-1 {
		// Fast path: border the cached factor with the newest observation,
		// appendRow's row: k(x, x) is 1 at unit variance.
		slot := e.chol.Slot()
		copy(slot, row.at(xs, e.ls))
		slot[n-1] = 1 + e.nf
		if e.chol.Append() == nil {
			e.n = n
			return syncAppended
		}
	}
	e.rebuild(xs)
	return syncRebuilt
}

// rebuild refactorizes from scratch into fresh storage. A failed
// factorization leaves the entry !ok at len(xs) observations, and fits skip
// it until a later sync rebuilds it.
func (e *surrogateEntry) rebuild(xs [][]float64) {
	e.n, e.ok, e.chol = len(xs), false, linalg.Tri{}
	if len(xs) == 0 {
		return
	}
	if chol, err := factorize(Matern52{Variance: 1, LengthScale: e.ls}, xs, e.nf); err == nil {
		e.chol, e.ok = chol, true
	}
}

// fit is the cache-backed replacement for fitBestGP: same grid, same
// first-best LML selection, but each candidate's factor is extended in
// O(n²) instead of rebuilt in O(n³), and scored against sd·L without
// forming it.
func (c *surrogateCache) fit(xs [][]float64, ys []float64) (*GP, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("opt: surrogate fit needs at least one observation")
	}
	c.sync(xs)
	varY := variance(ys)
	if varY < 1e-12 {
		varY = 1e-12
	}
	sd := math.Sqrt(varY)
	n := len(xs)
	var mean float64
	mean, c.centered = center(ys, c.centered)
	c.alpha = grow(c.alpha, n)
	c.bestAlpha = grow(c.bestAlpha, n)
	best := -1
	bestLML := math.Inf(-1)
	c.lastFit = fitSelection{}
	for i := range c.entries {
		e := &c.entries[i]
		if !e.ok {
			continue
		}
		e.chol.SolveLower(sd, c.centered, c.alpha)
		e.chol.SolveUpperT(sd, c.alpha, c.alpha)
		if lml := logMarginal(c.centered, c.alpha, e.chol.LogDet(sd)); lml > bestLML {
			bestLML = lml
			best = i
			c.alpha, c.bestAlpha = c.bestAlpha, c.alpha
			c.lastFit = fitSelection{
				ls: e.ls, nf: e.nf, signalVar: varY, lml: lml, ok: true,
			}
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("opt: no GP hyperparameters produced a valid fit")
	}
	e := &c.entries[best]
	c.scaled = e.chol.Scaled(sd, c.scaled)
	return &GP{
		kernel:   Matern52{Variance: varY, LengthScale: e.ls},
		noiseVar: e.nf * varY,
		xs:       xs,
		ys:       ys,
		mean:     mean,
		chol:     c.scaled,
		alpha:    c.bestAlpha,
	}, nil
}

// poolSample is how many of a proposal's first global candidates are
// scored in full whatever their bound, for the diagnostics' PoolMeanEI.
const poolSample = 64

// argmaxEI returns the first index attaining the maximum EI over cands (the
// first global uniform, the rest local), that EI's two terms, and the mean
// EI of the first min(global, poolSample). It visits that sample, then the
// local candidates, then the other global ones, and gives up on a candidate
// once its bound is below the best EI so far; one that could win or tie is
// scored in full, so the order moves nothing. idx is −1 when no EI is above
// −Inf.
func (b *BayesOpt) argmaxEI(gp *GP, cands [][]float64, global int, bestY float64) (idx int, exploit, explore, sampleMean float64) {
	idx = -1
	best := math.Inf(-1)
	sample := min(global, poolSample)
	var sum float64
	for _, span := range [3][2]int{{0, sample}, {global, len(cands)}, {sample, global}} {
		for i := span[0]; i < span[1]; i++ {
			floor := best
			if i < sample {
				floor = math.Inf(-1)
			}
			mu, s2, ok := b.scorer.predict(gp, cands[i], bestY, b.xi, floor)
			if !ok {
				continue
			}
			e1, e2 := eiTerms(mu, s2, gp.noiseVar, bestY, b.xi)
			ei := e1 + e2
			if i < sample {
				sum += ei
			}
			if ei > best || ei == best && i < idx {
				idx, best, exploit, explore = i, ei, e1, e2
			}
		}
	}
	return idx, exploit, explore, sum / float64(sample)
}
