package inspect

import (
	"fmt"
	"html"
	"io"
	"strings"

	"datamime/internal/profile"
)

// The report's palette: categorical slot 1 (target) and slot 2 (best) of a
// CVD-validated default palette, a sequential blue ramp for band heat, and
// recessive grid/text tokens. Dark values are the same hues re-stepped for
// the dark surface.
const htmlStyle = `:root{color-scheme:light dark}
body{margin:24px auto;max-width:980px;padding:0 16px;background:#fcfcfb;color:#0b0b0b;
font:14px/1.45 system-ui,-apple-system,"Segoe UI",sans-serif}
h1{font-size:20px;margin:0 0 2px}h2{font-size:15px;margin:28px 0 8px}
.sub{color:#52514e;margin:0 0 18px}
table{border-collapse:collapse;width:100%;margin:6px 0}
th{text-align:left;color:#52514e;font-weight:600;font-size:12px}
th,td{padding:4px 10px 4px 0;border-bottom:1px solid #e7e6e1;vertical-align:middle}
td.num,th.num{text-align:right;font-variant-numeric:tabular-nums}
.bandstrip{display:flex;height:12px;width:220px;border-radius:3px;overflow:hidden;background:#efeeea}
.bandstrip span{display:block;height:100%;border-right:2px solid #fcfcfb}
.bandstrip span:last-child{border-right:none}
svg{display:block;margin:4px 0 14px}
svg .grid{stroke:#e7e6e1;stroke-width:1}
svg .axis{stroke:#c9c8c2;stroke-width:1}
svg .tick{fill:#52514e;font:11px system-ui,sans-serif}
svg .label{fill:#52514e;font:12px system-ui,sans-serif}
svg .target{stroke:#2a78d6;fill:none;stroke-width:2}
svg .best{stroke:#eb6834;fill:none;stroke-width:2}
svg .evalpt{fill:#b9b8b1}
.legend{display:flex;gap:18px;margin:2px 0 6px;color:#52514e;font-size:12px}
.legend i{display:inline-block;width:14px;height:3px;border-radius:2px;vertical-align:middle;margin-right:5px}
.legend .t i{background:#2a78d6}.legend .b i{background:#eb6834}.legend .e i{background:#b9b8b1;height:7px;width:7px;border-radius:50%}
.grid2{display:grid;grid-template-columns:repeat(auto-fill,minmax(420px,1fr));gap:0 24px}
.warn{color:#9a3c12}
@media (prefers-color-scheme:dark){
body{background:#1a1a19;color:#fff}
.sub,th,svg .tick,svg .label,.legend{color:#c3c2b7}
th,td{border-bottom-color:#33332f}
.bandstrip{background:#262622}.bandstrip span{border-right-color:#1a1a19}
svg .grid{stroke:#33332f}svg .axis{stroke:#4a4a45}
svg .tick,svg .label{fill:#c3c2b7}
svg .target{stroke:#3987e5}svg .best{stroke:#d95926}
.legend .t i{background:#3987e5}.legend .b i{background:#d95926}
}`

// bandRamp is the sequential blue ramp shading attribution bands, light to
// dark (band index maps onto it by position).
var bandRamp = []string{"#dbe7f7", "#b3cdee", "#84ade2", "#5a8ed9", "#2a78d6", "#1c5aa8"}

func htmlEscape(s string) string { return html.EscapeString(s) }

// RenderHTML writes the self-contained single-file HTML report: summary,
// inline-SVG convergence plot, ranked quantile-band attribution table, and
// per-metric target-vs-best eCDF overlays. No external assets, no scripts,
// no clocks — the output is a pure function of the report.
func (r *Report) RenderHTML(w io.Writer) error {
	var b strings.Builder
	b.WriteString("<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	fmt.Fprintf(&b, "<title>%s — datamime report</title>\n", htmlEscape(r.Title))
	b.WriteString("<style>" + htmlStyle + "</style>\n</head>\n<body>\n")
	fmt.Fprintf(&b, "<h1>datamime run report — %s</h1>\n", htmlEscape(r.Title))
	if r.Run.Header != "" {
		fmt.Fprintf(&b, "<p class=\"sub\">%s</p>\n", htmlEscape(r.Run.Header))
	}
	if r.Run.Malformed > 0 {
		fmt.Fprintf(&b, "<p class=\"warn\">warning: %d malformed artifact line(s) skipped</p>\n", r.Run.Malformed)
	}
	r.writeSummaryHTML(&b)
	r.writeConvergenceHTML(&b)
	r.writeSearchHealthHTML(&b)
	r.writeAttributionHTML(&b)
	r.writeOverlaysHTML(&b)
	r.writePhasesHTML(&b)
	r.writeTimelineHTML(&b)
	b.WriteString("</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSummaryHTML renders the run-summary table.
func (r *Report) writeSummaryHTML(b *strings.Builder) {
	run := r.Run
	c := r.Counts
	b.WriteString("<h2>Run summary</h2>\n<table>\n<tbody>\n")
	row := func(k, v string) {
		fmt.Fprintf(b, "<tr><th>%s</th><td>%s</td></tr>\n", htmlEscape(k), htmlEscape(v))
	}
	if run.Job != "" {
		row("Job", run.Job)
	}
	row("Iterations", fmt.Sprintf("%d (evals %d, skipped %d, retried %d, replayed %d)",
		len(run.Evals), c.Evals, c.Skipped, c.Retried, c.Replayed))
	row("Eval cache", fmt.Sprintf("%d hits, %d misses%s", c.CacheHits, c.Misses, hitRateSuffix(c)))
	if r.BestFound {
		row("Best error", fmt.Sprintf("%s at iteration %d", fnum(r.Best.Error), r.Best.Iteration))
		if len(r.Best.Params) > 0 {
			row("Best params", "["+fnums(r.Best.Params)+"]")
		}
	}
	if r.Profiles.Complete() {
		row("Profiles", fmt.Sprintf("target %s vs best candidate, machine %s",
			r.Profiles.Target.Benchmark, r.Profiles.Target.Machine))
	}
	b.WriteString("</tbody>\n</table>\n")
}

// writeConvergenceHTML renders the Fig. 10-style convergence plot: one gray
// dot per evaluation's error plus the running-minimum step line.
func (r *Report) writeConvergenceHTML(b *strings.Builder) {
	var iters, errs []float64
	for _, e := range r.Run.Evals {
		if !e.Skipped {
			iters = append(iters, float64(e.Record.Iteration))
			errs = append(errs, e.Record.Error)
		}
	}
	if len(iters) == 0 {
		return
	}
	b.WriteString("<h2>Convergence</h2>\n")
	b.WriteString(`<div class="legend"><span class="e"><i></i>evaluation error</span><span class="t"><i></i>best error so far</span></div>` + "\n")
	g := defaultGeom(920, 260)
	xr := rangeOf(iters).pad()
	yr := rangeOf(errs, r.Trace).pad()
	g.openSVG(b, "convergence of the search: per-evaluation error and running minimum")
	g.writeAxes(b, xr, yr, "iteration", "error")
	for i := range iters {
		px, py := g.xy(xr, yr, iters[i], errs[i])
		fmt.Fprintf(b, `<circle class="evalpt" cx="%s" cy="%s" r="2.5"><title>iter %d: %s</title></circle>`,
			coord(px), coord(py), int(iters[i]), fnum(errs[i]))
	}
	fmt.Fprintf(b, `<path class="target" d="%s"/>`, g.stepPath(xr, yr, iters, r.Trace))
	b.WriteString("</svg>\n")
}

// writeAttributionHTML renders the ranked error-attribution table with a
// per-band heat strip for each component.
func (r *Report) writeAttributionHTML(b *strings.Builder) {
	if len(r.Attribution) == 0 {
		return
	}
	total := r.totalAttribution()
	b.WriteString("<h2>Error attribution</h2>\n")
	fmt.Fprintf(b, "<p class=\"sub\">Summed component distance %s. Bands decompose each metric's EMD by quantile region (curves by point); darker means more of that metric's error.</p>\n", fnum(total))
	b.WriteString("<table>\n<thead><tr><th>#</th><th>component</th><th>kind</th><th class=\"num\">distance</th><th class=\"num\">of total</th><th>band decomposition</th><th>dominant region</th></tr></thead>\n<tbody>\n")
	for i, a := range r.Attribution {
		share := 0.0
		if total > 0 {
			share = a.Distance / total
		}
		dominant := "—"
		strip := ""
		if di := a.DominantBand(); di >= 0 && a.Distance > 0 {
			db := a.Bands[di]
			dominant = fmt.Sprintf("%s (%s)", bandLabel(a.Kind, di, len(a.Bands), db), fpct(db.Share))
			strip = bandStrip(a)
		}
		fmt.Fprintf(b, "<tr><td class=\"num\">%d</td><td>%s</td><td>%s</td><td class=\"num\">%s</td><td class=\"num\">%s</td><td>%s</td><td>%s</td></tr>\n",
			i+1, htmlEscape(a.Component), a.Kind, fnum(a.Distance), fpct(share), strip, htmlEscape(dominant))
	}
	b.WriteString("</tbody>\n</table>\n")
}

// bandStrip renders one component's bands as a proportional heat strip.
func bandStrip(a Attribution) string {
	var b strings.Builder
	b.WriteString(`<div class="bandstrip">`)
	for i, band := range a.Bands {
		shade := bandRamp[i*len(bandRamp)/max(len(a.Bands), 1)]
		fmt.Fprintf(&b, `<span style="width:%.1f%%;background:%s" title="%s: %s"></span>`,
			band.Share*100, shade, bandLabel(a.Kind, i, len(a.Bands), band), fpct(band.Share))
	}
	b.WriteString("</div>")
	return b.String()
}

// writeOverlaysHTML renders one target-vs-best plot per component: eCDF
// overlays for the scalar metrics, allocation sweeps for the two curves.
func (r *Report) writeOverlaysHTML(b *strings.Builder) {
	if !r.Profiles.Complete() {
		return
	}
	target, best := r.Profiles.Target, r.Profiles.Best
	b.WriteString("<h2>Target vs. best profiles</h2>\n")
	b.WriteString(`<div class="legend"><span class="t"><i></i>target</span><span class="b"><i></i>best candidate</span></div>` + "\n")
	b.WriteString(`<div class="grid2">` + "\n")
	for _, a := range r.Attribution {
		if a.Kind == KindCurve {
			r.writeCurveOverlay(b, a.Component, target, best)
		} else {
			r.writeECDFOverlay(b, a.Component, target, best)
		}
	}
	b.WriteString("</div>\n")
}

// writeECDFOverlay renders one metric's target and best eCDFs.
func (r *Report) writeECDFOverlay(b *strings.Builder, comp string, target, best *profile.Profile) {
	id := profile.MetricID(comp)
	txs, tys := target.ECDF(id).Points()
	bxs, bys := best.ECDF(id).Points()
	if len(txs) == 0 && len(bxs) == 0 {
		return
	}
	fmt.Fprintf(b, "<div><h2>%s</h2>\n", htmlEscape(comp))
	g := defaultGeom(440, 200)
	xr := rangeOf(txs, bxs).pad()
	yr := axisRange{0, 1}
	g.openSVG(b, fmt.Sprintf("eCDF overlay of %s: target vs best candidate", comp))
	g.writeAxes(b, xr, yr, comp, "P(X ≤ x)")
	fmt.Fprintf(b, `<path class="target" d="%s"/>`, g.stepPath(xr, yr, txs, tys))
	fmt.Fprintf(b, `<path class="best" d="%s"/>`, g.stepPath(xr, yr, bxs, bys))
	b.WriteString("</svg>\n</div>\n")
}

// writeCurveOverlay renders one cache-sensitivity curve pair over the LLC
// way allocations.
func (r *Report) writeCurveOverlay(b *strings.Builder, comp string, target, best *profile.Profile) {
	var tvs, bvs []float64
	if comp == "ipc_curve" {
		tvs, bvs = target.IPCCurve(), best.IPCCurve()
	} else {
		tvs, bvs = target.LLCCurve(), best.LLCCurve()
	}
	if len(tvs) == 0 && len(bvs) == 0 {
		return
	}
	ways := func(p *profile.Profile, n int) []float64 {
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			if i < len(p.Curve) {
				out[i] = float64(p.Curve[i].Ways)
			} else {
				out[i] = float64(i + 1)
			}
		}
		return out
	}
	tws, bws := ways(target, len(tvs)), ways(best, len(bvs))
	fmt.Fprintf(b, "<div><h2>%s</h2>\n", htmlEscape(comp))
	g := defaultGeom(440, 200)
	xr := rangeOf(tws, bws).pad()
	yr := rangeOf(tvs, bvs).pad()
	g.openSVG(b, fmt.Sprintf("cache-sensitivity overlay of %s: target vs best candidate", comp))
	g.writeAxes(b, xr, yr, "LLC ways", comp)
	fmt.Fprintf(b, `<path class="target" d="%s"/>`, g.linePath(xr, yr, tws, tvs))
	fmt.Fprintf(b, `<path class="best" d="%s"/>`, g.linePath(xr, yr, bws, bvs))
	for i := range tws {
		px, py := g.xy(xr, yr, tws[i], tvs[i])
		fmt.Fprintf(b, `<circle cx="%s" cy="%s" r="3" fill="#2a78d6"/>`, coord(px), coord(py))
	}
	for i := range bws {
		px, py := g.xy(xr, yr, bws[i], bvs[i])
		fmt.Fprintf(b, `<circle cx="%s" cy="%s" r="3" fill="#eb6834"/>`, coord(px), coord(py))
	}
	b.WriteString("</svg>\n</div>\n")
}

// writePhasesHTML renders the aggregated span timings.
func (r *Report) writePhasesHTML(b *strings.Builder) {
	if len(r.Run.Phases) == 0 {
		return
	}
	fmt.Fprintf(b, "<h2>Phase timings</h2>\n<p class=\"sub\">%d spans recorded in the artifact.</p>\n<table>\n", r.Run.Spans)
	b.WriteString("<thead><tr><th>phase</th><th class=\"num\">count</th><th class=\"num\">total</th><th class=\"num\">mean</th></tr></thead>\n<tbody>\n")
	for _, row := range r.Run.phaseRows() {
		fmt.Fprintf(b, "<tr><td>%s</td><td class=\"num\">%d</td><td class=\"num\">%s</td><td class=\"num\">%s</td></tr>\n",
			htmlEscape(row.Name), row.Stat.Count, fms(row.Stat.TotalNS), fms(row.MeanNS))
	}
	b.WriteString("</tbody>\n</table>\n")
}

// writeTimelineHTML renders the profiler utilization section: per-worker
// occupancy bars (reusing the band-strip styling) and the pool's overlap
// summary. Omitted when the artifact carries no timed simulation spans.
func (r *Report) writeTimelineHTML(b *strings.Builder) {
	tl := r.Timeline
	if len(tl.Workers) == 0 && len(tl.Fleet) == 0 {
		return
	}
	if len(tl.Workers) > 0 {
		b.WriteString("<h2>Profiler utilization</h2>\n")
		fmt.Fprintf(b, "<p class=\"sub\">%s simulated across %d workers over %s of wall-clock — speedup %.2f×, parallel efficiency %s, single-worker share %s.</p>\n",
			fms(tl.BusyNS), len(tl.Workers), fms(tl.WallNS), tl.Speedup(), fpct(tl.Efficiency()), fpct(tl.SerialShare()))
		b.WriteString("<table>\n<thead><tr><th>worker</th><th class=\"num\">runs</th><th class=\"num\">busy</th><th class=\"num\">occupancy</th><th>utilization</th></tr></thead>\n<tbody>\n")
		for _, ws := range tl.Workers {
			occ := 0.0
			if tl.WallNS > 0 {
				occ = float64(ws.BusyNS) / float64(tl.WallNS)
			}
			strip := fmt.Sprintf(`<div class="bandstrip"><span style="width:%.1f%%;background:%s"></span></div>`,
				occ*100, bandRamp[4])
			fmt.Fprintf(b, "<tr><td>worker %d</td><td class=\"num\">%d</td><td class=\"num\">%s</td><td class=\"num\">%s</td><td>%s</td></tr>\n",
				ws.Worker, ws.Runs, fms(ws.BusyNS), fpct(occ), strip)
		}
		b.WriteString("</tbody>\n</table>\n")
		if tl.BudgetWaits > 0 {
			fmt.Fprintf(b, "<p class=\"sub\">Budget-semaphore stalls: %d totaling %s.</p>\n",
				tl.BudgetWaits, fms(tl.BudgetWaitNS))
		}
	}
	r.writeFleetHTML(b, tl)
}

// writeFleetHTML renders the fleet observability section: per-fleet-worker
// simulation occupancy from shipped spans, the fleet-wide occupancy figure,
// and the dispatch-overhead summary. Omitted for runs without fleet spans.
func (r *Report) writeFleetHTML(b *strings.Builder, tl *Timeline) {
	if len(tl.Fleet) == 0 {
		return
	}
	b.WriteString("<h2>Fleet utilization</h2>\n")
	fmt.Fprintf(b, "<p class=\"sub\">%s simulated on %d fleet processes — fleet-wide occupancy %s over %s covered wall, remote share %s.</p>\n",
		fms(tl.FleetBusyNS), len(tl.Fleet), fpct(tl.FleetOccupancy()), fms(tl.FleetWallNS), fpct(tl.RemoteShare()))
	b.WriteString("<table>\n<thead><tr><th>process</th><th class=\"num\">sims</th><th class=\"num\">busy</th><th class=\"num\">lanes</th><th class=\"num\">efficiency</th><th>utilization</th></tr></thead>\n<tbody>\n")
	for _, fs := range tl.Fleet {
		name := fmt.Sprintf("fleet worker %d", fs.Worker)
		if fs.Worker < 0 {
			name = "fleet fallback"
		}
		occ := 0.0
		if tl.FleetWallNS > 0 {
			occ = float64(fs.BusyNS) / float64(tl.FleetWallNS)
		}
		strip := fmt.Sprintf(`<div class="bandstrip"><span style="width:%.1f%%;background:%s"></span></div>`,
			occ*100, bandRamp[2])
		fmt.Fprintf(b, "<tr><td>%s</td><td class=\"num\">%d</td><td class=\"num\">%s</td><td class=\"num\">%d</td><td class=\"num\">%s</td><td>%s</td></tr>\n",
			htmlEscape(name), fs.Sims, fms(fs.BusyNS), fs.Lanes, fpct(fs.Efficiency()), strip)
	}
	b.WriteString("</tbody>\n</table>\n")
	var notes []string
	if tl.DispatchOverheadSamples > 0 {
		notes = append(notes, fmt.Sprintf("dispatch overhead %s over %d samples",
			fms(tl.DispatchOverheadNS), tl.DispatchOverheadSamples))
	}
	if tl.CacheProbes > 0 {
		notes = append(notes, fmt.Sprintf("%d worker cache probes (%d hits)", tl.CacheProbes, tl.CacheProbeHits))
	}
	if tl.FleetBudgetWaits > 0 {
		notes = append(notes, fmt.Sprintf("%d remote budget stalls totaling %s", tl.FleetBudgetWaits, fms(tl.FleetBudgetWaitNS)))
	}
	if len(notes) > 0 {
		fmt.Fprintf(b, "<p class=\"sub\">%s.</p>\n", htmlEscape(strings.Join(notes, "; ")))
	}
}
