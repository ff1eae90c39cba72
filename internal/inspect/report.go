package inspect

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"datamime/internal/core"
)

// Report is the assembled view of one run: the parsed artifact, the
// target/best profile pair (when available), the ranked error attribution,
// and every figure derived from the evaluation history. NewReport computes
// each once; the text and HTML renderers, the JSON summary, the service's
// corpus record and the CLIs are views that read these fields. All renderers
// are deterministic functions of the report.
type Report struct {
	Title    string
	Run      *Run
	Profiles *ProfilesDoc
	// Attribution ranks the error components, largest first. With complete
	// profiles it carries quantile-band decompositions; otherwise it falls
	// back to the artifact's recorded per-metric totals (no bands).
	Attribution []Attribution
	// Counts tallies the evaluation history.
	Counts Counts
	// Best is the run's best evaluation, valid when BestFound (false for a
	// run with no completed evaluation).
	Best      core.IterationRecord
	BestFound bool
	// Trace is the best-error-so-far series over the completed evaluations
	// — the Fig. 10 convergence curve.
	Trace []float64
	// Health is the run's search-health aggregate (nil when the artifact
	// carries no diagnostics) and Timeline its span-derived utilization
	// analysis.
	Health   *SearchHealth
	Timeline *Timeline
}

// NewReport assembles a report; an empty title defaults to the run's job ID
// or "datamime run". profiles may be nil; the eCDF overlays and quantile-band
// attribution then degrade to what the artifact alone records.
func NewReport(run *Run, profiles *ProfilesDoc, title string) *Report {
	r := &Report{
		Title:    title,
		Run:      run,
		Profiles: profiles,
		Counts:   run.Counts(),
		Trace:    run.BestTrace(),
		Health:   NewSearchHealth(run),
		Timeline: NewTimeline(run),
	}
	best, ok := run.Best()
	r.Best, r.BestFound = best.Record, ok
	if r.Title == "" {
		if run.Job != "" {
			r.Title = run.Job
		} else {
			r.Title = "datamime run"
		}
	}
	if profiles.Complete() {
		r.Attribution = AttributeProfiles(profiles.Target, profiles.Best, nil)
	} else {
		for name, dist := range r.Best.Components {
			r.Attribution = append(r.Attribution, Attribution{
				Component: name,
				Kind:      componentKind(name),
				Distance:  dist,
			})
		}
		// A total order (names are unique), so map order cannot leak.
		sort.Slice(r.Attribution, func(i, j int) bool {
			if r.Attribution[i].Distance != r.Attribution[j].Distance {
				return r.Attribution[i].Distance > r.Attribution[j].Distance
			}
			return r.Attribution[i].Component < r.Attribution[j].Component
		})
	}
	return r
}

// totalAttribution sums the component distances (the unweighted Eq. 1 sum).
func (r *Report) totalAttribution() float64 {
	var t float64
	for _, a := range r.Attribution {
		t += a.Distance
	}
	return t
}

// fnum renders a value with six significant digits — enough to identify a
// run, short enough for a table.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// fnums renders a parameter vector, space-separated.
func fnums(vs []float64) string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fnum(v)
	}
	return strings.Join(out, " ")
}

// fpct renders a fraction as a percentage.
func fpct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// fms renders nanoseconds as milliseconds.
func fms(ns int64) string { return fmt.Sprintf("%.3fms", float64(ns)/1e6) }

// bandLabel names a band for its kind: quantile range for distributions,
// point index for curves.
func bandLabel(kind string, i, n int, b Band) string {
	if kind == KindCurve {
		return fmt.Sprintf("pt%d/%d", i+1, n)
	}
	return fmt.Sprintf("q%s-%s", trimPct(b.Lo), trimPct(b.Hi))
}

func trimPct(q float64) string {
	s := strconv.FormatFloat(q*100, 'f', -1, 64)
	return s
}

// asciiBar renders share as a fixed-width bar.
func asciiBar(share float64, width int) string {
	n := int(share*float64(width) + 0.5)
	if n > width {
		n = width
	}
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

// sparkline downsamples a series into an ASCII strip (5 levels), low values
// rendered low. It gives the terminal report a one-line convergence shape.
func sparkline(series []float64, width int) string {
	if len(series) == 0 {
		return ""
	}
	levels := []byte("_.-=#")
	r := rangeOf(series).pad()
	var b strings.Builder
	if len(series) < width {
		width = len(series)
	}
	for i := 0; i < width; i++ {
		v := series[i*len(series)/width]
		f := (v - r.Lo) / (r.Hi - r.Lo)
		idx := int(f * float64(len(levels)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		b.WriteByte(levels[idx])
	}
	return b.String()
}

// RenderText writes the terminal report: run summary, ranked attribution
// table with per-band decomposition, and phase timings.
func (r *Report) RenderText(w io.Writer) error {
	var b strings.Builder
	run := r.Run
	fmt.Fprintf(&b, "datamime run report — %s\n", r.Title)
	if run.Header != "" {
		fmt.Fprintf(&b, "artifact: %s\n", run.Header)
	}
	if run.Malformed > 0 {
		fmt.Fprintf(&b, "warning: %d malformed artifact line(s) skipped\n", run.Malformed)
	}
	c := r.Counts
	fmt.Fprintf(&b, "\niterations %d: evals %d, skipped %d, cache hits %d, retried %d, replayed %d\n",
		len(run.Evals), c.Evals, c.Skipped, c.CacheHits, c.Retried, c.Replayed)

	if r.BestFound {
		fmt.Fprintf(&b, "best error %s at iteration %d\n", fnum(r.Best.Error), r.Best.Iteration)
		if len(r.Best.Params) > 0 {
			fmt.Fprintf(&b, "best params [%s]\n", fnums(r.Best.Params))
		}
		if trace := r.Trace; len(trace) > 1 {
			fmt.Fprintf(&b, "convergence %s -> %s  |%s|\n",
				fnum(trace[0]), fnum(trace[len(trace)-1]), sparkline(trace, 48))
		}
	} else {
		fmt.Fprintf(&b, "no completed evaluations\n")
	}

	if len(r.Attribution) > 0 {
		r.renderAttributionText(&b)
	}
	r.renderHealthText(&b)
	r.renderPhasesText(&b)
	if tl := r.Timeline; len(tl.Workers) > 0 || len(tl.Fleet) > 0 {
		if len(tl.Workers) > 0 {
			fmt.Fprintf(&b, "\nprofiler utilization: %d workers, speedup %.2fx, parallel efficiency %s\n",
				len(tl.Workers), tl.Speedup(), fpct(tl.Efficiency()))
		}
		if len(tl.Fleet) > 0 {
			fmt.Fprintf(&b, "fleet: %d processes, occupancy %s, remote share %s\n",
				len(tl.Fleet), fpct(tl.FleetOccupancy()), fpct(tl.RemoteShare()))
		}
	}
	fmt.Fprintf(&b, "\neval cache: %d hits, %d misses%s\n",
		c.CacheHits, c.Misses, hitRateSuffix(c))
	_, err := io.WriteString(w, b.String())
	return err
}

// hitRateSuffix renders the cache hit rate when the run evaluated anything.
func hitRateSuffix(c Counts) string {
	if c.Evals == 0 {
		return ""
	}
	return fmt.Sprintf(" (%s hit rate)", fpct(float64(c.CacheHits)/float64(c.Evals)))
}

// renderAttributionText writes the ranked error-attribution table.
func (r *Report) renderAttributionText(b *strings.Builder) {
	total := r.totalAttribution()
	hasBands := false
	for _, a := range r.Attribution {
		if len(a.Bands) > 0 {
			hasBands = true
		}
	}
	fmt.Fprintf(b, "\nerror attribution (summed component distance %s):\n", fnum(total))
	for i, a := range r.Attribution {
		share := 0.0
		if total > 0 {
			share = a.Distance / total
		}
		fmt.Fprintf(b, "%3d. %-16s %-12s %10s  %6s of total",
			i+1, a.Component, a.Kind, fnum(a.Distance), fpct(share))
		if di := a.DominantBand(); di >= 0 && a.Distance > 0 {
			db := a.Bands[di]
			fmt.Fprintf(b, "  dominant %s (%s)",
				bandLabel(a.Kind, di, len(a.Bands), db), fpct(db.Share))
		}
		b.WriteString("\n")
		for j, band := range a.Bands {
			if a.Distance == 0 {
				continue
			}
			fmt.Fprintf(b, "       %-10s %10s  %6s  |%s|\n",
				bandLabel(a.Kind, j, len(a.Bands), band),
				fnum(band.Contribution), fpct(band.Share), asciiBar(band.Share, 24))
		}
	}
	if !hasBands {
		fmt.Fprintf(b, "  (no profile pair available — totals from artifact, no quantile bands)\n")
	}
}

// phaseRow is one line of the phase-timings table.
type phaseRow struct {
	Name   string
	Stat   PhaseStat
	MeanNS int64
}

// phaseRows lists the aggregated span timings in phase-name order — the one
// listing both renderers tabulate.
func (r *Run) phaseRows() []phaseRow {
	rows := make([]phaseRow, 0, len(r.Phases))
	for name, st := range r.Phases {
		row := phaseRow{Name: name, Stat: st}
		if st.Count > 0 {
			row.MeanNS = st.TotalNS / int64(st.Count)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// renderPhasesText writes the aggregated span timings.
func (r *Report) renderPhasesText(b *strings.Builder) {
	if len(r.Run.Phases) == 0 {
		return
	}
	fmt.Fprintf(b, "\nphase timings (%d spans):\n", r.Run.Spans)
	fmt.Fprintf(b, "  %-16s %6s %12s %12s\n", "phase", "count", "total", "mean")
	for _, row := range r.Run.phaseRows() {
		fmt.Fprintf(b, "  %-16s %6d %12s %12s\n",
			row.Name, row.Stat.Count, fms(row.Stat.TotalNS), fms(row.MeanNS))
	}
}
