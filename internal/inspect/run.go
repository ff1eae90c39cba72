package inspect

import (
	"fmt"
	"io"
	"os"

	"datamime/internal/core"
	"datamime/internal/opt"
	"datamime/internal/telemetry"
)

// PhaseStat aggregates the span events of one pipeline phase.
type PhaseStat struct {
	Count   int
	TotalNS int64
}

// SpanRecord is one timed span event retained for timeline analysis. Spans
// without a wall-clock stamp are aggregated into Phases but not retained
// here.
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
	// Evals holds one decoded eval event per iteration, in stream order.
	Evals []core.EvalEvent
	// Phases aggregates span events by phase name.
	Phases map[string]PhaseStat
	// Spans counts span events consumed.
	Spans int
	// SpanLog holds the timed spans in stream order, feeding NewTimeline's
	// worker-occupancy and parallel-efficiency analysis.
	SpanLog []SpanRecord
	// UnstampedSpans counts span events without a wall-clock stamp. They
	// still aggregate into Phases, but carry no position on any timeline — a
	// nonzero count explains a sparse or empty occupancy analysis.
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
// (no best_error attribute) or diagnostics event (an integer field that is
// not a count) is an error.
func NewRun(events []telemetry.Event) (*Run, error) {
	run := &Run{Phases: make(map[string]PhaseStat)}
	for i, ev := range events {
		if err := run.Add(ev); err != nil {
			return nil, fmt.Errorf("inspect: event %d: %w", i, err)
		}
	}
	return run, nil
}

// LoadRun parses a JSONL run artifact. Malformed lines are skipped and
// counted (Run.Malformed) rather than failing the load, so an artifact cut
// mid-write still reads; only I/O errors and structurally broken eval or
// diagnostics events (valid JSON missing the best_error attribute, or an
// integer diagnostics field that is not a count) are fatal.
func LoadRun(r io.Reader) (*Run, error) {
	run := &Run{Phases: make(map[string]PhaseStat)}
	var err error
	if run.Malformed, err = telemetry.ScanJSONL(r, run.Add); err != nil {
		return nil, fmt.Errorf("inspect: %w", err)
	}
	return run, nil
}

// Add folds one event into the run, as it is recorded (the service's job
// store folds each job's events here); event types it does not know are
// skipped by design. An event it refuses, a structurally broken eval or
// diagnostics event, leaves the run as it was. The zero Run is ready to use.
func (run *Run) Add(ev telemetry.Event) error {
	if run.Job == "" && ev.Job != "" {
		run.Job = ev.Job
	}
	switch ev.Type {
	case telemetry.TypeLog:
		if run.Header == "" && ev.Msg != "" {
			run.Header = ev.Msg
		}
	case telemetry.TypeSpan:
		if run.Phases == nil {
			run.Phases = make(map[string]PhaseStat)
		}
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
		eval, err := core.EvalEventFromTelemetry(ev)
		if err != nil {
			return err
		}
		run.Evals = append(run.Evals, eval)
	case telemetry.TypeSearchDiagnostics:
		d, err := opt.DiagnosticsFromAttrs(ev.Attrs)
		if err != nil {
			return err
		}
		run.Diagnostics = append(run.Diagnostics, DiagRecord{Iter: ev.Iter, Diagnostics: d})
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

// BestTrace returns the best-error-so-far series over the non-skipped
// evals, in stream order — the Fig. 10 convergence curve.
func (r *Run) BestTrace() []float64 {
	var out []float64
	for _, e := range r.Evals {
		if !e.Skipped {
			out = append(out, e.Record.BestError)
		}
	}
	return out
}

// Best returns the run's best evaluation: the earliest non-skipped one with
// the minimum error. ok is false when the run has no evaluations.
func (r *Run) Best() (best core.EvalEvent, ok bool) {
	for _, e := range r.Evals {
		if e.Skipped {
			continue
		}
		if !ok || e.Record.Error < best.Record.Error {
			best, ok = e, true
		}
	}
	return best, ok
}

// Counts summarizes the evaluation history. The JSON tags are the run
// summary's (RunSummary embeds it).
type Counts struct {
	Evals     int `json:"evals"` // non-skipped evaluations
	Skipped   int `json:"skipped"`
	CacheHits int `json:"cache_hits"`
	// Misses counts non-skipped evaluations that simulated a fresh profile
	// (CacheHits + Misses = Evals).
	Misses   int `json:"cache_misses"`
	Retried  int `json:"retried"`
	Replayed int `json:"replayed"`
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
