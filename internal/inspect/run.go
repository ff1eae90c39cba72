package inspect

import (
	"fmt"
	"io"
	"os"
	"strings"

	"datamime/internal/opt"
	"datamime/internal/telemetry"
)

// EvalRecord is one search iteration reconstructed from a run artifact's
// eval event.
type EvalRecord struct {
	Iter      int
	Skipped   bool
	CacheHit  bool
	Retried   bool
	Replayed  bool
	Error     float64
	BestError float64
	Params    []float64
	// Components is the per-metric EMD attribution ("emd_*" attrs, prefix
	// stripped).
	Components map[string]float64
	// PhaseNS maps phase names to wall-clock nanoseconds ("phase_*_ns"
	// attrs, affixes stripped).
	PhaseNS map[string]int64
	// Note carries the event's message (the skip reason, usually).
	Note string
}

// PhaseStat aggregates the span events of one pipeline phase.
type PhaseStat struct {
	Count   int
	TotalNS int64
}

// SpanRecord is one timed span event retained for timeline analysis. Spans
// without a wall-clock stamp (synthesized artifacts of disk-restored jobs)
// are aggregated into Phases but not retained here.
type SpanRecord struct {
	Phase   string
	Iter    int
	StartNS int64 // wall-clock start (TimeNS − DurNS)
	EndNS   int64 // wall-clock end (TimeNS)
	Attrs   map[string]float64
}

// Run is a parsed JSONL run artifact: the evaluation history plus
// aggregated phase timings. It is the unit the diff engine compares and the
// report renderer consumes.
type Run struct {
	// Job is the job ID stamped on the artifact's events ("" for artifacts
	// written outside datamimed).
	Job string
	// Header is the artifact's first log line, when present.
	Header string
	// Evals holds one record per eval event, in stream order.
	Evals []EvalRecord
	// Phases aggregates span events by phase name.
	Phases map[string]PhaseStat
	// Spans counts span events consumed.
	Spans int
	// SpanLog holds the timed spans in stream order, feeding NewTimeline's
	// worker-occupancy and parallel-efficiency analysis.
	SpanLog []SpanRecord
	// UnstampedSpans counts span events without a wall-clock stamp
	// (synthesized artifacts of disk-restored jobs). They still aggregate
	// into Phases, but carry no position on any timeline — a nonzero count
	// explains a sparse or empty occupancy analysis.
	UnstampedSpans int
	// Diagnostics holds the GP search-health snapshots (search.diagnostics
	// events) in stream order, feeding the "Search health" report section.
	Diagnostics []DiagRecord
	// Malformed counts skipped lines that did not parse as events (e.g. a
	// line truncated by a dying writer).
	Malformed int
}

// NewRun builds a Run from in-memory events, in stream order — the same
// construction LoadRun applies to a file, for callers that already hold the
// events (the service's job store). Only a structurally broken eval event
// (no best_error attribute) is an error.
func NewRun(events []telemetry.Event) (*Run, error) {
	run := &Run{Phases: make(map[string]PhaseStat)}
	for i, ev := range events {
		if err := run.add(ev); err != nil {
			return nil, fmt.Errorf("inspect: event %d: %w", i, err)
		}
	}
	return run, nil
}

// LoadRun parses a JSONL run artifact. Malformed lines are skipped and
// counted (Run.Malformed) rather than failing the load, matching
// telemetry.ReplayBestTrace's tolerance for mid-write truncation; only I/O
// errors and structurally broken eval events (valid JSON missing the
// best_error attribute) are fatal.
func LoadRun(r io.Reader) (*Run, error) {
	run := &Run{Phases: make(map[string]PhaseStat)}
	var err error
	if run.Malformed, err = telemetry.ScanJSONL(r, run.add); err != nil {
		return nil, fmt.Errorf("inspect: %w", err)
	}
	return run, nil
}

// add folds one event into the run; event types it does not know are
// skipped by design.
func (run *Run) add(ev telemetry.Event) error {
	if run.Job == "" && ev.Job != "" {
		run.Job = ev.Job
	}
	switch ev.Type {
	case telemetry.TypeLog:
		if run.Header == "" && ev.Msg != "" {
			run.Header = ev.Msg
		}
	case telemetry.TypeSpan:
		st := run.Phases[ev.Phase]
		st.Count++
		st.TotalNS += ev.DurNS
		run.Phases[ev.Phase] = st
		run.Spans++
		if ev.TimeNS > 0 {
			run.SpanLog = append(run.SpanLog, SpanRecord{
				Phase:   ev.Phase,
				Iter:    ev.Iter,
				StartNS: ev.TimeNS - ev.DurNS,
				EndNS:   ev.TimeNS,
				Attrs:   ev.Attrs,
			})
		} else {
			run.UnstampedSpans++
		}
	case telemetry.TypeEval:
		rec, err := evalRecord(ev)
		if err != nil {
			return err
		}
		run.Evals = append(run.Evals, rec)
	case telemetry.TypeSearchDiagnostics:
		run.Diagnostics = append(run.Diagnostics,
			DiagRecord{Iter: ev.Iter, Diagnostics: opt.DiagnosticsFromAttrs(ev.Attrs)})
	}
	return nil
}

// LoadRunFile parses the artifact at path.
func LoadRunFile(path string) (*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("inspect: %w", err)
	}
	defer f.Close()
	run, err := LoadRun(f)
	if err != nil {
		return nil, fmt.Errorf("inspect: %s: %w", path, err)
	}
	return run, nil
}

// evalRecord converts one eval event, splitting the attribute conventions
// (emd_*, phase_*_ns, 0/1 flags) back into typed fields — the inverse of
// core.EvalEvent.TelemetryEvent.
func evalRecord(ev telemetry.Event) (EvalRecord, error) {
	rec := EvalRecord{
		Iter:    ev.Iter,
		Skipped: ev.Skipped,
		Params:  ev.Params,
		Note:    ev.Msg,
	}
	if !ev.Skipped {
		best, err := ev.BestError()
		if err != nil {
			return rec, err
		}
		rec.BestError = best
		rec.Error = ev.Attrs[telemetry.AttrError]
	}
	rec.CacheHit = ev.Attrs[telemetry.AttrCacheHit] != 0
	rec.Retried = ev.Attrs[telemetry.AttrRetried] != 0
	rec.Replayed = ev.Attrs[telemetry.AttrReplayed] != 0
	for k, v := range ev.Attrs {
		switch {
		case strings.HasPrefix(k, telemetry.EMDPrefix):
			if rec.Components == nil {
				rec.Components = make(map[string]float64)
			}
			rec.Components[strings.TrimPrefix(k, telemetry.EMDPrefix)] = v
		case strings.HasPrefix(k, telemetry.PhaseNSPrefix) && strings.HasSuffix(k, "_ns"):
			if rec.PhaseNS == nil {
				rec.PhaseNS = make(map[string]int64)
			}
			name := strings.TrimSuffix(strings.TrimPrefix(k, telemetry.PhaseNSPrefix), "_ns")
			rec.PhaseNS[name] = int64(v)
		}
	}
	return rec, nil
}

// BestTrace returns the best-error-so-far series over the non-skipped
// evals, in stream order — the Fig. 10 convergence curve.
func (r *Run) BestTrace() []float64 {
	var out []float64
	for _, rec := range r.Evals {
		if !rec.Skipped {
			out = append(out, rec.BestError)
		}
	}
	return out
}

// Best returns the run's best evaluation: the earliest non-skipped record
// with the minimum error. ok is false when the run has no evaluations.
func (r *Run) Best() (rec EvalRecord, ok bool) {
	for _, e := range r.Evals {
		if e.Skipped {
			continue
		}
		if !ok || e.Error < rec.Error {
			rec, ok = e, true
		}
	}
	return rec, ok
}

// Counts summarizes the evaluation history.
type Counts struct {
	Evals     int // non-skipped evaluations
	Skipped   int
	CacheHits int
	// Misses counts non-skipped evaluations that simulated a fresh profile
	// (CacheHits + Misses = Evals).
	Misses   int
	Retried  int
	Replayed int
}

// Counts tallies the run's evaluation records.
func (r *Run) Counts() Counts {
	var c Counts
	for _, e := range r.Evals {
		if e.Skipped {
			c.Skipped++
		} else {
			c.Evals++
			if e.CacheHit {
				c.CacheHits++
			} else {
				c.Misses++
			}
		}
		if e.Retried {
			c.Retried++
		}
		if e.Replayed {
			c.Replayed++
		}
	}
	return c
}

// FinalComponents returns the per-metric attribution of the best
// evaluation, or nil when the run carries none.
func (r *Run) FinalComponents() map[string]float64 {
	best, ok := r.Best()
	if !ok {
		return nil
	}
	return best.Components
}
