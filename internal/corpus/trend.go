package corpus

import "datamime/internal/stats"

// The verdict words the corpus itself reads. A scenario's first indexed run
// is its baseline; every later run carries the verdict of
// inspect.DiffRuns(baseline, run) — the judge `corpus compare` runs — and
// Trend counts the regressed ones (DESIGN §3g).
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

// Trend builds the longitudinal series for one scenario from the index, in
// index (completion) order.
func (c *Corpus) Trend(scenario string) Trend {
	recs := c.Select(Filter{Scenario: scenario})
	t := Trend{Scenario: scenario, Runs: len(recs), Points: recs}
	if len(recs) == 0 {
		return t
	}
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
	return t
}
