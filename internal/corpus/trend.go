package corpus

import "datamime/internal/stats"

// The verdict words the corpus itself reads. A scenario's first record is its
// baseline; every later run carries the verdict of
// inspect.DiffRuns(baseline, run) — the judge `datamime-inspect diff` runs —
// and Trend counts the regressed ones (DESIGN §3g).
const (
	VerdictBaseline  = "baseline"
	VerdictRegressed = "regressed"
)

// Trend is the best-error and duration series of one scenario across runs —
// its points are the scenario's records — with medians.
type Trend struct {
	Scenario          string   `json:"scenario"`
	Target            string   `json:"target,omitempty"`
	Generator         string   `json:"generator,omitempty"`
	Runs              int      `json:"runs"`
	Points            []Record `json:"points"`
	MedianBestError   float64  `json:"median_best_error"`
	MedianWallSeconds float64  `json:"median_wall_seconds"`
	BestError         float64  `json:"best_error"` // best across all runs
	Regressions       int      `json:"regressions"`
	// MedianCoverage1 is the median 1σ LOO calibration coverage across the
	// runs that carry model health (0 when none do); ModelUnhealthy counts
	// runs whose search-health verdict flagged a problem. Together they make
	// calibration drift visible at the scenario level.
	MedianCoverage1 float64 `json:"median_coverage1,omitempty"`
	ModelUnhealthy  int     `json:"model_unhealthy,omitempty"`
}

// Trends builds the longitudinal series of each scenario in recs, in
// first-seen order, each over its records in their order.
func Trends(recs []Record) []Trend {
	var out []Trend
	at := make(map[string]int)
	for _, rec := range recs {
		i, ok := at[rec.Scenario]
		if !ok {
			i = len(out)
			at[rec.Scenario] = i
			out = append(out, Trend{Scenario: rec.Scenario})
		}
		out[i].Points = append(out[i].Points, rec)
	}
	for i := range out {
		out[i].summarize()
	}
	return out
}

// summarize fills the trend's figures from its points.
func (t *Trend) summarize() {
	recs := t.Points
	t.Runs = len(recs)
	t.Target = recs[0].Target
	t.Generator = recs[0].Generator
	t.BestError = recs[0].BestError
	errs := make([]float64, 0, len(recs))
	walls := make([]float64, 0, len(recs))
	var covs []float64
	for _, rec := range recs {
		errs = append(errs, rec.BestError)
		walls = append(walls, rec.WallSeconds)
		if rec.BestError < t.BestError {
			t.BestError = rec.BestError
		}
		if rec.Verdict == VerdictRegressed {
			t.Regressions++
		}
		if mh := rec.ModelHealth; mh != nil {
			covs = append(covs, mh.MeanCoverage1)
			if !mh.Healthy {
				t.ModelUnhealthy++
			}
		}
	}
	t.MedianBestError = stats.Median(errs)
	t.MedianWallSeconds = stats.Median(walls)
	if len(covs) > 0 {
		t.MedianCoverage1 = stats.Median(covs)
	}
}
