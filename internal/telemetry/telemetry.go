// Package telemetry is the dependency-free tracing and metrics core behind
// Datamime's observability: a span recorder with monotonic phase timings, a
// JSONL run-artifact format (see artifact.go), lock-free latency histograms
// (histogram.go), and a deterministic slog-based line logger (logger.go).
//
// Telemetry is off by default and near-zero-cost when disabled: every
// Recorder method is safe on a nil receiver and returns after a single nil
// check without reading the clock or allocating, so instrumented code paths
// (the search loop, the profiler) carry a nil *Recorder with no overhead.
// Telemetry never feeds back into the search: enabling it cannot perturb
// proposals, seeds, or results.
package telemetry

import (
	"sync"
	"time"
)

// Canonical phase names emitted by the search pipeline. Span consumers
// (phase histograms, the timeline) key on these.
const (
	// PhasePropose covers one batch proposal (optimizer.Next/NextBatch).
	PhasePropose = "propose"
	// PhaseGPFit and PhaseAcquisition are the optimizer-internal phases of
	// a Bayesian-optimization proposal, surfaced via opt.TimingReporter.
	PhaseGPFit       = "gp_fit"
	PhaseAcquisition = "acquisition"
	// PhaseGenerate covers dataset generation (Generator.Benchmark).
	PhaseGenerate = "generate"
	// PhaseProfile covers one full candidate measurement (app run + sim).
	PhaseProfile = "profile"
	// PhaseProfileRun and PhaseProfileCurves are the profiler-internal
	// phases: the main lane's counter windows and the cache-sensitivity
	// curves.
	PhaseProfileRun    = "profile.run"
	PhaseProfileCurves = "profile.curves"
	// PhaseSimRun is a profile's one simulation pass, emitted per profile
	// with AttrWorker (its budget slot) and AttrLanes attributes — the raw
	// material of the per-worker trace timelines and utilization reports.
	PhaseSimRun = "profile.sim"
	// PhaseBudgetWait is the time one profile spent blocked on the shared
	// simulation budget before starting — the contention signal.
	PhaseBudgetWait = "budget.wait"
	// PhaseObserve covers feeding a batch's results back to the optimizer.
	PhaseObserve = "observe"
	// PhaseRemoteEval covers one candidate evaluation dispatched through an
	// eval backend (a remote worker, or the dispatcher's local fallback).
	// Spans carry AttrRemoteWorker/AttrRetries/AttrRemote attributes and get
	// their own per-worker lanes in the trace-event export. They are the
	// run's routing record: a span with retries > 0 was retried, and one
	// that also has remote == 0 fell back to the local backend.
	PhaseRemoteEval = "eval.remote"
	// PhaseWorkerRegister and PhaseWorkerDeregister are zero-duration
	// fleet-churn markers: a worker joining or leaving the fleet. Both
	// render as instants on the "fleet" track of the Perfetto export.
	PhaseWorkerRegister   = "worker.register"
	PhaseWorkerDeregister = "worker.deregister"
)

// Event types.
const (
	// TypeSpan is a closed span: a phase with a duration.
	TypeSpan = "span"
	// TypeEval is one finished search iteration.
	TypeEval = "eval"
	// TypeLog is a free-form message.
	TypeLog = "log"
	// TypeCorpusRegression is emitted by the coordinator's corpus watchdog
	// when a finished run converges worse than its scenario baseline. It is
	// appended to the job's artifact; consumers that don't know it
	// (inspect.LoadRun) skip it by design.
	TypeCorpusRegression = "corpus.regression"
	// TypeSearchDiagnostics is one trace record's GP search-health
	// snapshot: Attrs is opt.Diagnostics.Attrs(), which owns the attribute
	// keys, and opt.DiagnosticsFromAttrs decodes it. core writes it
	// (EvalEvent.DiagnosticsEvent) immediately before the eval event of the
	// record that carries the snapshot, under that record's iteration; like
	// corpus.regression, consumers that predate it skip it by design.
	TypeSearchDiagnostics = "search.diagnostics"
)

// Event is one telemetry record: a closed span, a finished evaluation, or a
// log message. Events marshal one-per-line into the JSONL run artifact.
// TimeNS is informational wall-clock (UnixNano); DurNS is measured on the
// monotonic clock. U is an eval's unit-cube point, which a resume replays:
// integer Params do not normalize back to it.
type Event struct {
	Type    string             `json:"type"`
	Job     string             `json:"job,omitempty"`
	Iter    int                `json:"iter,omitempty"`
	Phase   string             `json:"phase,omitempty"`
	DurNS   int64              `json:"dur_ns,omitempty"`
	TimeNS  int64              `json:"time_ns,omitempty"`
	Skipped bool               `json:"skipped,omitempty"`
	Msg     string             `json:"msg,omitempty"`
	Params  []float64          `json:"params,omitempty"`
	U       []float64          `json:"u,omitempty"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// Options configures a Recorder.
type Options struct {
	// OnEvent, when non-nil, is called synchronously for every event.
	// Events emitted by one goroutine arrive in emission order; events
	// from concurrent emitters (parallel evaluations) may interleave.
	OnEvent func(Event)
}

// Recorder collects spans and events. A nil Recorder is valid and disabled:
// all methods are nil-safe no-ops, so instrumented code needs no branches
// beyond the receiver check the calls already perform.
type Recorder struct {
	onEvent func(Event)
}

// New builds a Recorder.
func New(opts Options) *Recorder {
	return &Recorder{onEvent: opts.OnEvent}
}

// Enabled reports whether the recorder records (i.e. is non-nil). Guard
// attribute-map construction with it so the disabled path allocates nothing.
func (r *Recorder) Enabled() bool { return r != nil }

// Emit stamps one event with the wall clock (unless already stamped) and
// hands it to the OnEvent sink. Safe on a nil receiver.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	if ev.TimeNS == 0 {
		ev.TimeNS = time.Now().UnixNano()
	}
	if r.onEvent != nil {
		r.onEvent(ev)
	}
}

// Span is an open phase timing started by StartSpan. The zero Span (from a
// nil Recorder) is valid; End on it is a no-op.
type Span struct {
	r     *Recorder
	phase string
	iter  int
	start time.Time
}

// StartSpan opens a span for one phase of one iteration (pass iter 0 when
// there is no iteration context). On a nil receiver it returns the zero
// Span without reading the clock.
func (r *Recorder) StartSpan(phase string, iter int) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, phase: phase, iter: iter, start: time.Now()}
}

// End closes the span, emitting a span event with the monotonic elapsed
// time, and returns that duration. attrs may be nil; when attaching
// attributes, build the map under an Enabled() guard so the disabled path
// does not allocate.
func (s Span) End(attrs map[string]float64) time.Duration {
	if s.r == nil {
		return 0
	}
	d := time.Since(s.start)
	s.r.Emit(Event{
		Type:  TypeSpan,
		Iter:  s.iter,
		Phase: s.phase,
		DurNS: d.Nanoseconds(),
		Attrs: attrs,
	})
	return d
}

// RecordSpan emits a span event for an externally timed phase (e.g. the
// optimizer's internal GP-fit time, measured inside internal/opt).
func (r *Recorder) RecordSpan(phase string, iter int, d time.Duration, attrs map[string]float64) {
	if r == nil {
		return
	}
	r.Emit(Event{Type: TypeSpan, Iter: iter, Phase: phase, DurNS: d.Nanoseconds(), Attrs: attrs})
}

// Collector is an unbounded OnEvent sink that retains every event for
// end-of-run export (trace-event JSON, artifact rewriting). Compose its
// Record method into Options.OnEvent, possibly alongside other sinks.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Record appends one event. Safe for concurrent use.
func (c *Collector) Record(ev Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Events returns a copy of everything recorded so far, in arrival order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}
