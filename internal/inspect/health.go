package inspect

// Search-health analysis: the optimizer-observatory view of a run. The raw
// material is the artifact's search.diagnostics events (one opt.Diagnostics
// snapshot per surrogate-backed proposal); this file distills them into a
// SearchHealth aggregate with a heuristic verdict, and renders the "Search
// health" section of the text and HTML reports. Everything is a pure
// function of the parsed run — no clocks — so identically-seeded runs
// render identical bytes.

import (
	"fmt"
	"math"
	"strings"

	"datamime/internal/corpus"
	"datamime/internal/opt"
)

// DiagRecord is one iteration's GP search-health snapshot: the
// opt.Diagnostics of the fit that proposed iteration Iter, decoded from its
// search.diagnostics artifact event. Its JSON is {"iter":N, ...the
// snapshot's own fields}.
type DiagRecord struct {
	Iter int `json:"iter"`
	opt.Diagnostics
}

// AcqGap is the chosen-vs-pool-mean EI spread: how peaked the acquisition
// surface still is. A gap collapsing toward zero means every candidate
// looks alike to the optimizer — the stagnation signal.
func (d DiagRecord) AcqGap() float64 { return finite(d.ChosenEI - d.PoolMeanEI) }

// finite clamps a figure derived from recorded values to the float64 range.
// The recorded values are finite (JSON has no infinities), but a sum,
// difference or ratio of them can overflow, and an infinity has no JSON
// encoding: the summary holding it would not marshal.
func finite(v float64) float64 {
	return math.Max(-math.MaxFloat64, math.Min(v, math.MaxFloat64))
}

// Nominal Gaussian band coverages the calibration figures are judged
// against: P(|z| ≤ 1) and P(|z| ≤ 2).
const (
	NominalCoverage1 = 0.6827
	NominalCoverage2 = 0.9545
)

// SearchHealth aggregates a run's diagnostics snapshots into the headline
// model-health figures and a heuristic verdict. It is both what the text and
// HTML reports render and, through its JSON tags, the machine-readable
// search-health block of `report -json`, `report -diagnostics` and
// GET /v1/jobs/{id}/diagnostics. Every figure is derived from the search's own
// factorizations — no clocks — so two identically-seeded runs produce
// byte-equal JSON; the CI inspect-gate relies on that.
type SearchHealth struct {
	Snapshots int `json:"snapshots"`
	// FirstLogMarginal is the first fit's log evidence; FinalLogMarginal
	// the last, for the trend.
	FirstLogMarginal float64 `json:"first_log_marginal"`
	FinalLogMarginal float64 `json:"final_log_marginal"`
	// MeanCoverage1/MeanCoverage2 average the 1σ/2σ LOO band coverages
	// over the second half of the snapshots (early fits have too few
	// observations to judge calibration on).
	MeanCoverage1 float64 `json:"mean_coverage1"`
	MeanCoverage2 float64 `json:"mean_coverage2"`
	// MaxJitterLevel and MaxCondition are the worst conditioning any
	// snapshot reported.
	MaxJitterLevel int     `json:"max_jitter_level"`
	MaxCondition   float64 `json:"max_condition"`
	// FinalGap and MaxGap track the chosen-vs-pool-mean EI spread.
	FinalGap float64 `json:"final_acq_gap"`
	MaxGap   float64 `json:"max_acq_gap"`
	// ExploreShare is the exploration term's share of the last chosen EI.
	ExploreShare float64 `json:"explore_share"`

	// Healthy reports that no heuristic flag fired; Verdicts are the flags
	// raised.
	Healthy  bool     `json:"healthy"`
	Verdicts []string `json:"verdicts,omitempty"`

	// Records are the per-iteration snapshots, in stream order.
	Records []DiagRecord `json:"records,omitempty"`
}

// VerdictLine renders the verdict as one line.
func (h *SearchHealth) VerdictLine() string {
	if h == nil || len(h.Records) == 0 {
		return "no diagnostics recorded"
	}
	if h.Healthy {
		return "healthy: calibration near nominal, conditioning clean, acquisition surface still informative"
	}
	return strings.Join(h.Verdicts, "; ")
}

// ModelHealth is the rollup of the aggregate that a corpus record freezes
// into the index (nil for a run without diagnostics) — the one place
// corpus.ModelHealth's fields are filled.
func (h *SearchHealth) ModelHealth() *corpus.ModelHealth {
	if h == nil {
		return nil
	}
	return &corpus.ModelHealth{
		Snapshots:        h.Snapshots,
		MeanCoverage1:    h.MeanCoverage1,
		MeanCoverage2:    h.MeanCoverage2,
		FinalLogMarginal: h.FinalLogMarginal,
		MaxJitterLevel:   h.MaxJitterLevel,
		Healthy:          h.Healthy,
	}
}

// NewSearchHealth distills a run's diagnostics snapshots. Returns nil when
// the artifact carries none (no surrogate fit, a job restored from its
// checkpoint, or a pre-diagnostics artifact).
func NewSearchHealth(run *Run) *SearchHealth {
	if len(run.Diagnostics) == 0 {
		return nil
	}
	recs := run.Diagnostics
	h := &SearchHealth{
		Snapshots:        len(recs),
		Records:          recs,
		FirstLogMarginal: recs[0].LogMarginal,
		FinalLogMarginal: recs[len(recs)-1].LogMarginal,
		FinalGap:         recs[len(recs)-1].AcqGap(),
	}
	// Judge calibration on the settled half of the search.
	settled := recs[len(recs)/2:]
	for _, d := range settled {
		h.MeanCoverage1 += d.Coverage1
		h.MeanCoverage2 += d.Coverage2
	}
	h.MeanCoverage1 = finite(h.MeanCoverage1) / float64(len(settled))
	h.MeanCoverage2 = finite(h.MeanCoverage2) / float64(len(settled))
	for _, d := range recs {
		if d.JitterLevel > h.MaxJitterLevel {
			h.MaxJitterLevel = d.JitterLevel
		}
		if d.Condition > h.MaxCondition {
			h.MaxCondition = d.Condition
		}
		if g := d.AcqGap(); g > h.MaxGap {
			h.MaxGap = g
		}
	}
	if last := recs[len(recs)-1]; last.ChosenEI > 0 {
		h.ExploreShare = finite(last.ExploreEI / last.ChosenEI)
	}
	h.Verdicts = verdicts(h)
	h.Healthy = len(h.Verdicts) == 0
	return h
}

// verdicts applies the heuristic health checks. Thresholds are deliberately
// loose — the verdict is a triage pointer, not a gate — and every flag
// names the figure that tripped it so the reader can judge.
func verdicts(h *SearchHealth) []string {
	var out []string
	n := len(h.Records)
	// Calibration needs enough observations per fit to mean anything.
	if enough := h.Records[n-1].Observations >= 8; enough {
		switch {
		case h.MeanCoverage1 < 0.45 || h.MeanCoverage2 < 0.80:
			out = append(out, fmt.Sprintf(
				"miscalibrated (overconfident): LOO coverage %s inside 1σ / %s inside 2σ (nominal %s / %s)",
				fpct(h.MeanCoverage1), fpct(h.MeanCoverage2),
				fpct(NominalCoverage1), fpct(NominalCoverage2)))
		case h.MeanCoverage1 > 0.95 && h.MeanCoverage2 > 0.99:
			out = append(out, fmt.Sprintf(
				"miscalibrated (underconfident): LOO coverage %s inside 1σ (nominal %s) — predictive bands too wide",
				fpct(h.MeanCoverage1), fpct(NominalCoverage1)))
		}
	}
	if h.MaxJitterLevel >= 2 {
		out = append(out, fmt.Sprintf(
			"ill-conditioned covariance: jitter escalated to level %d (base ×10^%d)",
			h.MaxJitterLevel, h.MaxJitterLevel))
	} else if h.MaxCondition > 1e12 {
		out = append(out, fmt.Sprintf(
			"ill-conditioned covariance: condition estimate %.2g", h.MaxCondition))
	}
	if n >= 3 && h.MaxGap > 0 && h.FinalGap < 0.02*h.MaxGap {
		out = append(out, fmt.Sprintf(
			"stagnating acquisition: chosen-vs-pool EI gap collapsed to %s of its peak (%.3g of %.3g)",
			fpct(h.FinalGap/h.MaxGap), h.FinalGap, h.MaxGap))
	}
	return out
}

// SimpleRegret returns the simple-regret series of the run's convergence
// trace: best-so-far error minus the run's final best, per evaluation. The
// canonical "is the search still making progress" curve.
func SimpleRegret(trace []float64) []float64 {
	if len(trace) == 0 {
		return nil
	}
	final := trace[len(trace)-1]
	out := make([]float64, len(trace))
	for i, v := range trace {
		out[i] = v - final
	}
	return out
}

// healthSeries are the per-snapshot plot columns of the search-health
// section, one value per diagnostics record.
type healthSeries struct {
	iters, cov1, cov2, lmls, gaps, lens []float64
}

// series builds the plot columns both renderers draw (sparklines in text,
// SVG paths in HTML).
func (h *SearchHealth) series() healthSeries {
	var s healthSeries
	for _, d := range h.Records {
		s.iters = append(s.iters, float64(d.Iter))
		s.cov1 = append(s.cov1, d.Coverage1)
		s.cov2 = append(s.cov2, d.Coverage2)
		s.lmls = append(s.lmls, d.LogMarginal)
		s.gaps = append(s.gaps, d.AcqGap())
		s.lens = append(s.lens, d.LengthScale)
	}
	return s
}

// renderHealthText writes the terminal "search health" section.
func (r *Report) renderHealthText(b *strings.Builder) {
	h := r.Health
	if h == nil {
		return
	}
	recs := h.Records
	last := recs[len(recs)-1]
	fmt.Fprintf(b, "\nsearch health (%d GP diagnostics snapshots):\n", len(recs))
	s := h.series()
	fmt.Fprintf(b, "  gp fit: length scale %s, noise frac %s, log marginal %s -> %s  |%s|\n",
		fnum(last.LengthScale), fnum(last.NoiseFrac),
		fnum(h.FirstLogMarginal), fnum(h.FinalLogMarginal), sparkline(s.lmls, 32))
	fmt.Fprintf(b, "  calibration: 1σ coverage %s (nominal %s), 2σ %s (nominal %s)  |%s|\n",
		fpct(h.MeanCoverage1), fpct(NominalCoverage1),
		fpct(h.MeanCoverage2), fpct(NominalCoverage2), sparkline(s.cov1, 32))
	fmt.Fprintf(b, "  loo residuals: rmse %s, max |z| %s over %d observations\n",
		fnum(last.LOORMSE), fnum(last.LOOMaxZ), last.Observations)
	fmt.Fprintf(b, "  conditioning: max jitter level %d, condition estimate %.3g\n",
		h.MaxJitterLevel, h.MaxCondition)
	fmt.Fprintf(b, "  acquisition: chosen EI %s vs pool mean %s (gap trend |%s|), explore share %s\n",
		fnum(last.ChosenEI), fnum(last.PoolMeanEI), sparkline(s.gaps, 32), fpct(h.ExploreShare))
	fmt.Fprintf(b, "  verdict: %s\n", h.VerdictLine())
}

// writeSearchHealthHTML renders the HTML "Search health" section: the
// calibration-coverage plot against nominal bands, the simple-regret curve,
// and the hyperparameter / acquisition-gap trajectories, plus the verdict.
func (r *Report) writeSearchHealthHTML(b *strings.Builder) {
	h := r.Health
	if h == nil {
		return
	}
	s := h.series()
	b.WriteString("<h2>Search health</h2>\n")
	cls := "sub"
	if !h.Healthy {
		cls = "warn"
	}
	fmt.Fprintf(b, "<p class=\"%s\">Verdict: %s.</p>\n", cls, htmlEscape(h.VerdictLine()))
	fmt.Fprintf(b, "<p class=\"sub\">%d GP diagnostics snapshots — leave-one-out calibration, model evidence, and acquisition-surface health, all derived from the search's own factorizations.</p>\n", len(h.Records))
	b.WriteString(`<div class="grid2">` + "\n")

	// Calibration: observed 1σ/2σ coverage against the nominal Gaussian
	// bands (dashed grid lines at 68.3% and 95.4%).
	b.WriteString("<div><h2>LOO calibration coverage</h2>\n")
	b.WriteString(`<div class="legend"><span class="t"><i></i>within 1σ</span><span class="b"><i></i>within 2σ</span></div>` + "\n")
	g := defaultGeom(440, 200)
	xr := rangeOf(s.iters).pad()
	yr := axisRange{0, 1}
	g.openSVG(b, "leave-one-out calibration coverage per iteration vs nominal Gaussian bands")
	g.writeAxes(b, xr, yr, "iteration", "coverage")
	for _, nominal := range []float64{NominalCoverage1, NominalCoverage2} {
		_, py := g.xy(xr, yr, xr.Lo, nominal)
		fmt.Fprintf(b, `<line class="axis" stroke-dasharray="4 3" x1="%s" y1="%s" x2="%s" y2="%s"/>`,
			coord(g.MarginL), coord(py), coord(g.W-g.MarginR), coord(py))
	}
	fmt.Fprintf(b, `<path class="target" d="%s"/>`, g.linePath(xr, yr, s.iters, s.cov1))
	fmt.Fprintf(b, `<path class="best" d="%s"/>`, g.linePath(xr, yr, s.iters, s.cov2))
	b.WriteString("</svg>\n</div>\n")

	// Simple regret: best-so-far minus final best, over evaluations.
	if trace := r.Trace; len(trace) > 1 {
		regret := SimpleRegret(trace)
		xs := make([]float64, len(regret))
		for i := range xs {
			xs[i] = float64(i)
		}
		b.WriteString("<div><h2>Simple regret</h2>\n")
		g := defaultGeom(440, 200)
		xr := rangeOf(xs).pad()
		yr := rangeOf(regret).pad()
		g.openSVG(b, "simple regret: best-so-far error minus final best, per evaluation")
		g.writeAxes(b, xr, yr, "evaluation", "regret")
		fmt.Fprintf(b, `<path class="target" d="%s"/>`, g.stepPath(xr, yr, xs, regret))
		b.WriteString("</svg>\n</div>\n")
	}

	// Model evidence trajectory.
	b.WriteString("<div><h2>Log marginal likelihood</h2>\n")
	g = defaultGeom(440, 200)
	xr = rangeOf(s.iters).pad()
	yr = rangeOf(s.lmls).pad()
	g.openSVG(b, "GP log marginal likelihood of the selected hyperparameters per iteration")
	g.writeAxes(b, xr, yr, "iteration", "log marginal")
	fmt.Fprintf(b, `<path class="target" d="%s"/>`, g.linePath(xr, yr, s.iters, s.lmls))
	b.WriteString("</svg>\n</div>\n")

	// Hyperparameter trajectory: the ML-selected length scale (log10).
	logLens := make([]float64, len(s.lens))
	for i, v := range s.lens {
		logLens[i] = math.Log10(v)
	}
	b.WriteString("<div><h2>Selected length scale</h2>\n")
	g = defaultGeom(440, 200)
	yr = rangeOf(logLens).pad()
	g.openSVG(b, "ML-selected kernel length scale per iteration, log10")
	g.writeAxes(b, xr, yr, "iteration", "log10 length scale")
	fmt.Fprintf(b, `<path class="target" d="%s"/>`, g.linePath(xr, yr, s.iters, logLens))
	b.WriteString("</svg>\n</div>\n")

	// Acquisition gap: chosen EI vs the candidate-pool mean.
	b.WriteString("<div><h2>Acquisition gap</h2>\n")
	b.WriteString(`<div class="legend"><span class="t"><i></i>chosen − pool mean EI</span></div>` + "\n")
	g = defaultGeom(440, 200)
	yr = rangeOf(s.gaps).pad()
	g.openSVG(b, "acquisition gap: chosen candidate EI minus pool mean, per iteration")
	g.writeAxes(b, xr, yr, "iteration", "EI gap")
	fmt.Fprintf(b, `<path class="target" d="%s"/>`, g.linePath(xr, yr, s.iters, s.gaps))
	b.WriteString("</svg>\n</div>\n")

	b.WriteString("</div>\n")
}
