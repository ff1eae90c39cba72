package inspect

// Deterministic inline-SVG plotting primitives for the HTML report: fixed
// viewport geometry, tick selection, and path building. Coordinates are
// formatted with a fixed precision so identical inputs render identical
// bytes.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// plotGeom is the fixed geometry of one SVG plot.
type plotGeom struct {
	W, H                               float64 // total viewport
	MarginL, MarginR, MarginT, MarginB float64
}

func defaultGeom(w, h float64) plotGeom {
	return plotGeom{W: w, H: h, MarginL: 56, MarginR: 14, MarginT: 12, MarginB: 30}
}

func (g plotGeom) innerW() float64 { return g.W - g.MarginL - g.MarginR }
func (g plotGeom) innerH() float64 { return g.H - g.MarginT - g.MarginB }

// axisRange maps data values onto the plot rectangle.
type axisRange struct{ Lo, Hi float64 }

// pad widens a degenerate range so a flat series still renders mid-plot.
func (r axisRange) pad() axisRange {
	if r.Hi > r.Lo {
		return r
	}
	span := math.Abs(r.Lo)
	if span == 0 {
		span = 1
	}
	return axisRange{Lo: r.Lo - span/2, Hi: r.Lo + span/2}
}

// rangeOf returns the [min, max] range of all values across the series.
func rangeOf(series ...[]float64) axisRange {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, v := range s {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if lo > hi {
		return axisRange{0, 1}
	}
	return axisRange{lo, hi}
}

// coord formats an SVG coordinate with fixed precision.
func coord(v float64) string {
	// Avoid "-0.00" so identical geometry always prints identically.
	s := strconv.FormatFloat(v, 'f', 2, 64)
	if s == "-0.00" {
		return "0.00"
	}
	return s
}

// tickLabel formats an axis tick value compactly.
func tickLabel(v float64) string {
	a := math.Abs(v)
	if a >= 10000 || (a < 0.001 && a > 0) {
		return strconv.FormatFloat(v, 'g', 3, 64)
	}
	s := strconv.FormatFloat(v, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// niceTicks picks ~n human-friendly tick values covering [lo, hi].
func niceTicks(lo, hi float64, n int) []float64 {
	if n < 2 || !(hi > lo) {
		return []float64{lo, hi}
	}
	rawStep := (hi - lo) / float64(n-1)
	mag := math.Pow(10, math.Floor(math.Log10(rawStep)))
	var step float64
	switch norm := rawStep / mag; {
	case norm <= 1:
		step = mag
	case norm <= 2:
		step = 2 * mag
	case norm <= 5:
		step = 5 * mag
	default:
		step = 10 * mag
	}
	first := math.Ceil(lo/step) * step
	var ticks []float64
	// The nice step is at least the raw one, so a range takes at most n
	// ticks. Bounding the count, with one to spare, is what ends the loop
	// where v += step stops advancing: a range narrower than the float
	// spacing at its magnitude, or one whose end plus the tolerance rounds
	// to +Inf.
	for v := first; v <= hi+step*1e-9 && len(ticks) <= n; v += step {
		// Snap near-zero accumulation error so labels stay clean.
		if math.Abs(v) < step*1e-9 {
			v = 0
		}
		ticks = append(ticks, v)
	}
	if len(ticks) < 2 {
		return []float64{lo, hi}
	}
	return ticks
}

// xy maps a data point into viewport coordinates.
func (g plotGeom) xy(xr, yr axisRange, x, y float64) (float64, float64) {
	px := g.MarginL + (x-xr.Lo)/(xr.Hi-xr.Lo)*g.innerW()
	py := g.MarginT + (1-(y-yr.Lo)/(yr.Hi-yr.Lo))*g.innerH()
	return px, py
}

// linePath builds an SVG path through the points in order.
func (g plotGeom) linePath(xr, yr axisRange, xs, ys []float64) string {
	var b strings.Builder
	for i := range xs {
		px, py := g.xy(xr, yr, xs[i], ys[i])
		if i == 0 {
			b.WriteString("M")
		} else {
			b.WriteString(" L")
		}
		b.WriteString(coord(px))
		b.WriteString(",")
		b.WriteString(coord(py))
	}
	return b.String()
}

// stepPath builds a right-continuous step path (the shape of an eCDF or a
// best-error-so-far series): horizontal to the next x, then vertical.
func (g plotGeom) stepPath(xr, yr axisRange, xs, ys []float64) string {
	var b strings.Builder
	for i := range xs {
		px, py := g.xy(xr, yr, xs[i], ys[i])
		if i == 0 {
			fmt.Fprintf(&b, "M%s,%s", coord(px), coord(py))
			continue
		}
		_, prevY := g.xy(xr, yr, xs[i-1], ys[i-1])
		fmt.Fprintf(&b, " L%s,%s L%s,%s", coord(px), coord(prevY), coord(px), coord(py))
	}
	return b.String()
}

// writeAxes renders the plot frame: recessive horizontal grid lines, tick
// labels on both axes, and axis titles.
func (g plotGeom) writeAxes(b *strings.Builder, xr, yr axisRange, xLabel, yLabel string) {
	xt := niceTicks(xr.Lo, xr.Hi, 5)
	yt := niceTicks(yr.Lo, yr.Hi, 5)
	for _, v := range yt {
		_, py := g.xy(xr, yr, xr.Lo, v)
		fmt.Fprintf(b, `<line class="grid" x1="%s" y1="%s" x2="%s" y2="%s"/>`,
			coord(g.MarginL), coord(py), coord(g.W-g.MarginR), coord(py))
		fmt.Fprintf(b, `<text class="tick" x="%s" y="%s" text-anchor="end">%s</text>`,
			coord(g.MarginL-6), coord(py+3.5), tickLabel(v))
	}
	for _, v := range xt {
		px, _ := g.xy(xr, yr, v, yr.Lo)
		fmt.Fprintf(b, `<text class="tick" x="%s" y="%s" text-anchor="middle">%s</text>`,
			coord(px), coord(g.H-g.MarginB+16), tickLabel(v))
	}
	fmt.Fprintf(b, `<line class="axis" x1="%s" y1="%s" x2="%s" y2="%s"/>`,
		coord(g.MarginL), coord(g.H-g.MarginB), coord(g.W-g.MarginR), coord(g.H-g.MarginB))
	if xLabel != "" {
		fmt.Fprintf(b, `<text class="label" x="%s" y="%s" text-anchor="middle">%s</text>`,
			coord(g.MarginL+g.innerW()/2), coord(g.H-4), htmlEscape(xLabel))
	}
	if yLabel != "" {
		fmt.Fprintf(b, `<text class="label" x="%s" y="%s" text-anchor="middle" transform="rotate(-90 %s %s)">%s</text>`,
			coord(12), coord(g.MarginT+g.innerH()/2), coord(12), coord(g.MarginT+g.innerH()/2), htmlEscape(yLabel))
	}
}

// openSVG emits the <svg> element with the plot's viewport.
func (g plotGeom) openSVG(b *strings.Builder, title string) {
	fmt.Fprintf(b, `<svg viewBox="0 0 %s %s" width="%s" height="%s" role="img" aria-label=%q>`,
		coord(g.W), coord(g.H), coord(g.W), coord(g.H), title)
}
