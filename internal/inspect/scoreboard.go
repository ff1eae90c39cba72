package inspect

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"datamime/internal/corpus"
	"datamime/internal/stats"
)

// ScoreboardRun is one corpus run on the scoreboard: its record plus, when
// the caller read its job log, the best-error trajectory for the cross-run
// convergence overlay.
type ScoreboardRun struct {
	Record     corpus.Record
	Trajectory []float64
}

// scoreRamp colors the per-run overlay traces; runs cycle through it in
// corpus order, so the same corpus renders the same colors every time.
var scoreRamp = []string{
	"#2a78d6", "#d6722a", "#3aa655", "#a63a8a",
	"#7a5cd6", "#3aa6a2", "#d64545", "#a6a13a",
}

// RenderScoreboard writes the self-contained HTML fleet scoreboard: a
// summary table of every run, then — per scenario — the cross-run
// convergence overlay and the best-error / duration trends with the corpus
// median marked. Like the run report, the output is a pure function of its
// inputs: no scripts, no external assets, no clocks.
func RenderScoreboard(w io.Writer, title string, runs []ScoreboardRun) error {
	if title == "" {
		title = "datamime corpus"
	}
	var b strings.Builder
	b.WriteString("<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	fmt.Fprintf(&b, "<title>%s — datamime scoreboard</title>\n", htmlEscape(title))
	b.WriteString("<style>" + htmlStyle + "</style>\n</head>\n<body>\n")
	fmt.Fprintf(&b, "<h1>datamime corpus scoreboard — %s</h1>\n", htmlEscape(title))
	fmt.Fprintf(&b, "<p class=\"sub\">%d runs, %d scenarios</p>\n",
		len(runs), len(scenarioOrder(runs)))

	writeScoreboardTable(&b, runs)
	for _, scenario := range scenarioOrder(runs) {
		group := make([]ScoreboardRun, 0, len(runs))
		for _, r := range runs {
			if r.Record.Scenario == scenario {
				group = append(group, r)
			}
		}
		writeScenarioSection(&b, scenario, group)
	}

	b.WriteString("</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// scenarioOrder lists the scenarios in first-seen (corpus) order.
func scenarioOrder(runs []ScoreboardRun) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range runs {
		if !seen[r.Record.Scenario] {
			seen[r.Record.Scenario] = true
			out = append(out, r.Record.Scenario)
		}
	}
	return out
}

// writeScoreboardTable renders the all-runs summary table.
func writeScoreboardTable(b *strings.Builder, runs []ScoreboardRun) {
	b.WriteString("<h2>Runs</h2>\n<table>\n<thead>\n<tr>" +
		"<th>run</th><th>scenario</th><th>target</th><th>seed</th><th>backend</th>" +
		"<th>best error</th><th>evals</th><th>wall</th><th>verdict</th><th>finished</th>" +
		"</tr>\n</thead>\n<tbody>\n")
	for _, r := range runs {
		rec := r.Record
		verdict := rec.Verdict
		cls := ""
		if verdict == corpus.VerdictRegressed {
			cls = ` class="warn"`
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%s</td><td class=\"num\">%d</td><td>%s</td>"+
			"<td class=\"num\">%s</td><td class=\"num\">%d</td><td class=\"num\">%.1fs</td><td%s>%s</td><td>%s</td></tr>\n",
			htmlEscape(rec.ID), htmlEscape(rec.Scenario), htmlEscape(rec.Target), rec.Seed,
			htmlEscape(rec.Backend), fnum(rec.BestError), rec.Evals, rec.WallSeconds,
			cls, htmlEscape(verdict), htmlEscape(rec.FinishedAt.UTC().Format(time.RFC3339)))
	}
	b.WriteString("</tbody>\n</table>\n")
}

// writeScenarioSection renders one scenario's convergence overlay and trend
// plots.
func writeScenarioSection(b *strings.Builder, scenario string, group []ScoreboardRun) {
	if len(group) == 0 {
		return
	}
	target := group[0].Record.Target
	fmt.Fprintf(b, "<h2>Scenario %s</h2>\n", htmlEscape(scenario))
	fmt.Fprintf(b, "<p class=\"sub\">target %s, %d runs</p>\n", htmlEscape(target), len(group))

	writeConvergenceOverlay(b, group)
	writeTrendPlots(b, group)
}

// writeConvergenceOverlay steps every run's best-error trajectory on one
// plot, color-cycled, so convergence drift across runs is visible at a
// glance.
func writeConvergenceOverlay(b *strings.Builder, group []ScoreboardRun) {
	var all [][]float64
	maxLen := 0
	for _, r := range group {
		if len(r.Trajectory) > 0 {
			all = append(all, r.Trajectory)
			if len(r.Trajectory) > maxLen {
				maxLen = len(r.Trajectory)
			}
		}
	}
	if len(all) == 0 {
		return
	}
	b.WriteString("<h3>Cross-run convergence</h3>\n<div class=\"legend\">")
	for i, r := range group {
		if len(r.Trajectory) == 0 {
			continue
		}
		fmt.Fprintf(b, `<span><i style="background:%s"></i>%s</span>`,
			scoreRamp[i%len(scoreRamp)], htmlEscape(r.Record.ID))
	}
	b.WriteString("</div>\n")

	g := defaultGeom(920, 260)
	xr := axisRange{Lo: 0, Hi: float64(max(maxLen-1, 1))}.pad()
	yr := rangeOf(all...).pad()
	g.openSVG(b, "best-error-so-far trajectories overlaid across runs")
	g.writeAxes(b, xr, yr, "evaluation", "best error")
	for i, r := range group {
		if len(r.Trajectory) == 0 {
			continue
		}
		xs := make([]float64, len(r.Trajectory))
		for j := range xs {
			xs[j] = float64(j)
		}
		fmt.Fprintf(b, `<path style="fill:none;stroke:%s;stroke-width:1.6" d="%s"><title>%s</title></path>`,
			scoreRamp[i%len(scoreRamp)], g.stepPath(xr, yr, xs, r.Trajectory),
			htmlEscape(r.Record.ID))
	}
	b.WriteString("</svg>\n")
}

// writeTrendPlots renders the best-error and wall-time series across runs,
// with the corpus median as a dashed reference line.
func writeTrendPlots(b *strings.Builder, group []ScoreboardRun) {
	xs := make([]float64, len(group))
	errs := make([]float64, len(group))
	walls := make([]float64, len(group))
	for i, r := range group {
		xs[i] = float64(i)
		errs[i] = r.Record.BestError
		walls[i] = r.Record.WallSeconds
	}
	writeTrendPlot(b, "Best error across runs", "run", "best error", xs, errs)
	writeTrendPlot(b, "Duration across runs", "run", "wall seconds", xs, walls)
}

// writeTrendPlot renders one series as a line with point markers plus its
// median as a dashed line.
func writeTrendPlot(b *strings.Builder, heading, xLabel, yLabel string, xs, ys []float64) {
	if len(xs) == 0 {
		return
	}
	med := stats.Median(ys)
	fmt.Fprintf(b, "<h3>%s</h3>\n", htmlEscape(heading))
	fmt.Fprintf(b, "<p class=\"sub\">median %s</p>\n", fnum(med))
	g := defaultGeom(920, 200)
	xr := rangeOf(xs).pad()
	yr := rangeOf(ys, []float64{med}).pad()
	g.openSVG(b, heading)
	g.writeAxes(b, xr, yr, xLabel, yLabel)
	_, medY := g.xy(xr, yr, xr.Lo, med)
	fmt.Fprintf(b, `<line style="stroke:#888;stroke-dasharray:4 3" x1="%s" y1="%s" x2="%s" y2="%s"><title>median %s</title></line>`,
		coord(g.MarginL), coord(medY), coord(g.W-g.MarginR), coord(medY), fnum(med))
	fmt.Fprintf(b, `<path style="fill:none;stroke:%s;stroke-width:1.6" d="%s"/>`,
		scoreRamp[0], g.linePath(xr, yr, xs, ys))
	for i := range xs {
		px, py := g.xy(xr, yr, xs[i], ys[i])
		fmt.Fprintf(b, `<circle style="fill:%s" cx="%s" cy="%s" r="3"><title>run %d: %s</title></circle>`,
			scoreRamp[0], coord(px), coord(py), i, fnum(ys[i]))
	}
	b.WriteString("</svg>\n")
}

// ScoreboardRuns assembles scoreboard rows from corpus records, reading each
// run's trajectory (best-effort) from its job log, <dir>/<id>.jsonl, for the
// convergence overlays.
func ScoreboardRuns(dir string, recs []corpus.Record) []ScoreboardRun {
	out := make([]ScoreboardRun, 0, len(recs))
	for _, rec := range recs {
		row := ScoreboardRun{Record: rec}
		if run, err := LoadRunFile(filepath.Join(dir, rec.ID+".jsonl")); err == nil {
			row.Trajectory = run.BestTrace()
		}
		out = append(out, row)
	}
	// Stable order: corpus.Load returns corpus order already, but guard
	// against callers passing filtered slices in arbitrary order.
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Record.FinishedAt.Before(out[j].Record.FinishedAt)
	})
	return out
}
