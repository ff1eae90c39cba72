package inspect

import (
	"fmt"
	"math"
	"sort"

	"datamime/internal/core"
	"datamime/internal/corpus"
)

// Verdicts of a run comparison, from best to worst.
const (
	// VerdictIdentical: no difference beyond tolerance anywhere.
	VerdictIdentical = "identical"
	// VerdictImproved: runs differ and B's best error is at least a
	// tolerance better than A's, with no regressions.
	VerdictImproved = "improved"
	// VerdictChanged: runs differ without crossing any regression
	// threshold (e.g. timings shifted, equal-error path divergence).
	VerdictChanged = "changed"
	// VerdictRegressed: at least one regression threshold was crossed. It
	// is the word the corpus counts regressions by.
	VerdictRegressed = corpus.VerdictRegressed
)

// DiffOptions sets the comparison thresholds.
type DiffOptions struct {
	// Tolerance is the absolute slack applied to every numeric comparison
	// (best error, component distances, convergence series, parameters,
	// each iteration's point and error) before it counts as a difference or
	// regression. Default 1e-9.
	Tolerance float64
	// ErrorTolerance, when positive, overrides Tolerance for the best-error
	// regression check only — CI can allow small error drift while still
	// flagging structural divergence.
	ErrorTolerance float64
}

func (o DiffOptions) tolerance() float64 {
	if o.Tolerance > 0 {
		return o.Tolerance
	}
	return 1e-9
}

func (o DiffOptions) errorTolerance() float64 {
	if o.ErrorTolerance > 0 {
		return o.ErrorTolerance
	}
	return o.tolerance()
}

// Delta is one compared quantity.
type Delta struct {
	Name string  `json:"name"`
	A    float64 `json:"a"`
	B    float64 `json:"b"`
	// Delta is B − A.
	Delta float64 `json:"delta"`
}

func (d Delta) abs() float64 { return math.Abs(d.Delta) }

// RunDiff is the machine-readable outcome of comparing run B against
// baseline run A.
type RunDiff struct {
	// Verdict is one of the Verdict* constants.
	Verdict string `json:"verdict"`
	// BestError compares the runs' final best errors.
	BestError Delta `json:"best_error"`
	// BestIter is each run's best iteration index.
	BestIter [2]int `json:"best_iter"`
	// Iterations, Evals, Skipped, CacheHits compare the history shapes.
	Iterations [2]int `json:"iterations"`
	Evals      [2]int `json:"evals"`
	Skipped    [2]int `json:"skipped"`
	CacheHits  [2]int `json:"cache_hits"`
	// Components compares the best evaluation's per-metric attribution
	// (union of both runs' components, sorted by name).
	Components []Delta `json:"components,omitempty"`
	// ParamsMaxDelta is the largest absolute best-parameter difference
	// (0 when dimensions differ — see ParamsComparable).
	ParamsMaxDelta   float64 `json:"params_max_delta"`
	ParamsComparable bool    `json:"params_comparable"`
	// FirstDivergence is the first index where the best-error convergence
	// series differ beyond tolerance (-1 when they match over the shared
	// prefix and have equal length).
	FirstDivergence int `json:"first_divergence"`
	// SeriesMaxDelta is the largest absolute best-error difference over the
	// shared prefix of the convergence series.
	SeriesMaxDelta float64 `json:"series_max_delta"`
	// Regressions lists every crossed regression threshold.
	Regressions []string `json:"regressions,omitempty"`
	// Differences lists every detected difference, regressions included.
	Differences []string `json:"differences,omitempty"`
}

// Regressed reports whether any regression threshold was crossed.
func (d *RunDiff) Regressed() bool { return len(d.Regressions) > 0 }

// Identical reports whether no difference was detected.
func (d *RunDiff) Identical() bool { return len(d.Differences) == 0 }

// DiffRuns compares run b against baseline a. The comparison covers only
// semantic search state — errors, attribution, parameters, history shape,
// and every iteration of the shared history — never wall-clock timings, so
// two runs of a deterministic search diff clean regardless of machine speed.
func DiffRuns(a, b *Run, opts DiffOptions) *RunDiff {
	tol := opts.tolerance()
	d := &RunDiff{FirstDivergence: -1}
	regress := func(format string, args ...interface{}) {
		msg := fmt.Sprintf(format, args...)
		d.Regressions = append(d.Regressions, msg)
		d.Differences = append(d.Differences, msg)
	}
	differ := func(format string, args ...interface{}) {
		d.Differences = append(d.Differences, fmt.Sprintf(format, args...))
	}

	ca, cb := a.Counts(), b.Counts()
	d.Iterations = [2]int{len(a.Evals), len(b.Evals)}
	d.Evals = [2]int{ca.Evals, cb.Evals}
	d.Skipped = [2]int{ca.Skipped, cb.Skipped}
	d.CacheHits = [2]int{ca.CacheHits, cb.CacheHits}
	if len(a.Evals) != len(b.Evals) {
		if len(b.Evals) < len(a.Evals) {
			regress("iterations shrank: %d -> %d", len(a.Evals), len(b.Evals))
		} else {
			differ("iterations grew: %d -> %d", len(a.Evals), len(b.Evals))
		}
	}
	if cb.Skipped > ca.Skipped {
		regress("skipped evaluations rose: %d -> %d", ca.Skipped, cb.Skipped)
	} else if cb.Skipped < ca.Skipped {
		differ("skipped evaluations fell: %d -> %d", ca.Skipped, cb.Skipped)
	}

	evA, okA := a.Best()
	evB, okB := b.Best()
	bestA, bestB := evA.Record, evB.Record
	d.BestIter = [2]int{bestA.Iteration, bestB.Iteration}
	d.BestError = Delta{Name: "best_error", A: bestA.Error, B: bestB.Error, Delta: bestB.Error - bestA.Error}
	switch {
	case okA && !okB:
		regress("run B has no evaluations")
	case !okA && okB:
		differ("run A has no evaluations")
	case okA && okB:
		if d.BestError.Delta > opts.errorTolerance() {
			regress("best error worsened: %.6g -> %.6g (+%.3g)", bestA.Error, bestB.Error, d.BestError.Delta)
		} else if d.BestError.abs() > tol {
			differ("best error changed: %.6g -> %.6g (%+.3g)", bestA.Error, bestB.Error, d.BestError.Delta)
		}
		if bestA.Iteration != bestB.Iteration {
			differ("best iteration moved: %d -> %d", bestA.Iteration, bestB.Iteration)
		}
		d.diffParams(bestA.Params, bestB.Params, tol, differ)
	}

	d.diffComponents(bestA.Components, bestB.Components, opts, regress, differ)
	d.diffSeries(a.BestTrace(), b.BestTrace(), tol, differ)
	diffEvals(a.Evals, b.Evals, tol, differ)

	switch {
	case len(d.Regressions) > 0:
		d.Verdict = VerdictRegressed
	case len(d.Differences) == 0:
		d.Verdict = VerdictIdentical
	case d.BestError.Delta < -opts.errorTolerance():
		d.Verdict = VerdictImproved
	default:
		d.Verdict = VerdictChanged
	}
	return d
}

// diffParams compares best-point parameter vectors.
func (d *RunDiff) diffParams(pa, pb []float64, tol float64, differ func(string, ...interface{})) {
	if len(pa) != len(pb) {
		differ("best params dimension changed: %d -> %d", len(pa), len(pb))
		return
	}
	d.ParamsComparable = true
	for i := range pa {
		d.ParamsMaxDelta = math.Max(d.ParamsMaxDelta, math.Abs(pb[i]-pa[i]))
	}
	if d.ParamsMaxDelta > tol {
		differ("best params moved: max |delta| %.6g", d.ParamsMaxDelta)
	}
}

// diffComponents compares the per-metric attribution of the best points.
func (d *RunDiff) diffComponents(ma, mb map[string]float64, opts DiffOptions, regress, differ func(string, ...interface{})) {
	tol := opts.tolerance()
	union := make(map[string]struct{}, len(ma)+len(mb))
	for k := range ma {
		union[k] = struct{}{}
	}
	for k := range mb {
		union[k] = struct{}{}
	}
	names := make([]string, 0, len(union))
	for k := range union {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		va, inA := ma[name]
		vb, inB := mb[name]
		delta := Delta{Name: name, A: va, B: vb, Delta: vb - va}
		d.Components = append(d.Components, delta)
		switch {
		case inA && !inB:
			differ("component %s disappeared", name)
		case !inA && inB:
			differ("component %s appeared", name)
		case delta.Delta > tol:
			regress("component %s worsened: %.6g -> %.6g (+%.3g)", name, va, vb, delta.Delta)
		case delta.abs() > tol:
			differ("component %s improved: %.6g -> %.6g (%+.3g)", name, va, vb, delta.Delta)
		}
	}
}

// diffSeries compares the best-error convergence series.
func (d *RunDiff) diffSeries(sa, sb []float64, tol float64, differ func(string, ...interface{})) {
	n := len(sa)
	if len(sb) < n {
		n = len(sb)
	}
	for i := 0; i < n; i++ {
		diff := math.Abs(sb[i] - sa[i])
		d.SeriesMaxDelta = math.Max(d.SeriesMaxDelta, diff)
		if diff > tol && d.FirstDivergence < 0 {
			d.FirstDivergence = i
		}
	}
	if d.FirstDivergence >= 0 {
		differ("convergence series diverge from iteration %d (max |delta| %.6g)",
			d.FirstDivergence, d.SeriesMaxDelta)
	}
	// Length mismatch is already reported via the iteration counts.
}

// diffEvals reports the first iteration of the shared history that differs:
// in its number, point, parameters, error, attribution, or skip and retry
// outcome. How an iteration was served (cache hit, replay, simulated cycles)
// legitimately differs between a cold run, a cached rerun and a restored
// run, and a skip's message names where the evaluation failed; neither is
// compared.
func diffEvals(ea, eb []core.EvalEvent, tol float64, differ func(string, ...interface{})) {
	for i := range min(len(ea), len(eb)) {
		a, b := ea[i], eb[i]
		var what string
		switch {
		case a.Record.Iteration != b.Record.Iteration:
			what = fmt.Sprintf("numbered %d -> %d", a.Record.Iteration, b.Record.Iteration)
		case a.Skipped != b.Skipped:
			what = fmt.Sprintf("skipped %v -> %v", a.Skipped, b.Skipped)
		case a.Retried != b.Retried:
			what = fmt.Sprintf("retried %v -> %v", a.Retried, b.Retried)
		case !closeVec(a.U, b.U, tol):
			what = "point u moved"
		case !closeVec(a.Record.Params, b.Record.Params, tol):
			what = "params moved"
		case math.Abs(b.Record.Error-a.Record.Error) > tol:
			what = fmt.Sprintf("error %.6g -> %.6g", a.Record.Error, b.Record.Error)
		case !closeMap(a.Record.Components, b.Record.Components, tol):
			what = "component attribution changed"
		default:
			continue
		}
		differ("iteration %d differs (%s)", i, what)
		return
	}
}

// closeVec reports whether two vectors have one length and agree within tol.
func closeVec(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(b[i]-a[i]) > tol {
			return false
		}
	}
	return true
}

// closeMap reports whether two attributions have the same components and
// agree within tol.
func closeMap(a, b map[string]float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		if vb, ok := b[k]; !ok || math.Abs(vb-va) > tol {
			return false
		}
	}
	return true
}
