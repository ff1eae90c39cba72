package inspect

import (
	"encoding/json"
	"io"
)

// RunSummary is the machine-readable distillation of one run report: best
// error, ranked attribution, evaluation counts, phase totals, and (when the
// artifact carries timed spans) the timeline utilization figures. It is what
// `datamime-inspect report -json` emits, so CI gates and the corpus indexer
// consume reports without scraping text.
type RunSummary struct {
	Job    string `json:"job,omitempty"`
	Header string `json:"header,omitempty"`

	BestError float64   `json:"best_error"`
	BestIter  int       `json:"best_iter"`
	BestFound bool      `json:"best_found"`
	Params    []float64 `json:"best_params,omitempty"`
	// Trajectory is the best-error-so-far series over non-skipped
	// evaluations, in evaluation order — the series corpus.TrajectoryHash
	// fingerprints.
	Trajectory []float64 `json:"trajectory,omitempty"`

	// Attribution ranks error components largest-first (per-band detail is
	// a rendering concern; the summary carries the component totals).
	Attribution []ComponentSummary `json:"attribution,omitempty"`

	Counts
	Malformed int `json:"malformed,omitempty"`
	Spans     int `json:"spans,omitempty"`

	// PhaseSeconds totals span time per pipeline phase.
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`

	Timeline *TimelineSummary `json:"timeline,omitempty"`

	// Diagnostics is the GP search-health block (present when the artifact
	// carries search.diagnostics events).
	Diagnostics *SearchHealth `json:"diagnostics,omitempty"`
}

// ComponentSummary is one error component's contribution.
type ComponentSummary struct {
	Component string  `json:"component"`
	Kind      string  `json:"kind,omitempty"`
	Distance  float64 `json:"distance"`
}

// TimelineSummary condenses the sweep-line timeline into its headline
// utilization figures.
type TimelineSummary struct {
	Workers                 int     `json:"workers"`
	BusySeconds             float64 `json:"busy_seconds"`
	WallSeconds             float64 `json:"wall_seconds"`
	Speedup                 float64 `json:"speedup"`
	Efficiency              float64 `json:"efficiency"`
	SerialShare             float64 `json:"serial_share"`
	BudgetWaits             int     `json:"budget_waits,omitempty"`
	RemoteEvals             int     `json:"remote_evals,omitempty"`
	RemoteShare             float64 `json:"remote_share,omitempty"`
	FleetProcesses          int     `json:"fleet_processes,omitempty"`
	FleetBusySeconds        float64 `json:"fleet_busy_seconds,omitempty"`
	DispatchRetries         int     `json:"dispatch_retries,omitempty"`
	DispatchFallbacks       int     `json:"dispatch_fallbacks,omitempty"`
	DispatchOverheadSeconds float64 `json:"dispatch_overhead_seconds,omitempty"`
	DispatchOverheadSamples int     `json:"dispatch_overhead_samples,omitempty"`
	CacheProbes             int     `json:"cache_probes,omitempty"`
	UnstampedSpans          int     `json:"unstamped_spans,omitempty"`
}

// NewRunSummary distills a report into its machine-readable summary.
func NewRunSummary(r *Report) RunSummary {
	run := r.Run
	s := RunSummary{
		Job:        run.Job,
		Header:     run.Header,
		BestFound:  r.BestFound,
		BestError:  r.Best.BestError,
		BestIter:   r.Best.Iteration,
		Params:     r.Best.Params,
		Trajectory: r.Trace,
		Counts:     r.Counts,
		Malformed:  run.Malformed,
		Spans:      run.Spans,
	}
	for _, a := range r.Attribution {
		s.Attribution = append(s.Attribution, ComponentSummary{
			Component: a.Component,
			Kind:      a.Kind,
			Distance:  a.Distance,
		})
	}
	if len(run.Phases) > 0 {
		s.PhaseSeconds = make(map[string]float64, len(run.Phases))
		for name, st := range run.Phases {
			s.PhaseSeconds[name] = float64(st.TotalNS) / 1e9
		}
	}
	s.Diagnostics = r.Health
	if tl := r.Timeline; len(tl.Workers) > 0 || len(tl.Fleet) > 0 {
		remoteEvals := 0
		for _, rs := range tl.Remote {
			remoteEvals += rs.Evals
		}
		s.Timeline = &TimelineSummary{
			Workers:                 len(tl.Workers),
			BusySeconds:             float64(tl.BusyNS) / 1e9,
			WallSeconds:             float64(tl.WallNS) / 1e9,
			Speedup:                 tl.Speedup(),
			Efficiency:              tl.Efficiency(),
			SerialShare:             tl.SerialShare(),
			BudgetWaits:             tl.BudgetWaits,
			RemoteEvals:             remoteEvals,
			RemoteShare:             tl.RemoteShare(),
			FleetProcesses:          len(tl.Fleet),
			FleetBusySeconds:        float64(tl.FleetBusyNS) / 1e9,
			DispatchRetries:         tl.DispatchRetries,
			DispatchFallbacks:       tl.DispatchFallbacks,
			DispatchOverheadSeconds: float64(tl.DispatchOverheadNS) / 1e9,
			DispatchOverheadSamples: tl.DispatchOverheadSamples,
			CacheProbes:             tl.CacheProbes,
			UnstampedSpans:          tl.UnstampedSpans,
		}
	}
	return s
}

// WriteJSON renders the summary as indented JSON.
func (s RunSummary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
