package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"datamime/internal/backend"
	"datamime/internal/core"
	"datamime/internal/corpus"
	"datamime/internal/datagen"
	"datamime/internal/harness"
	"datamime/internal/inspect"
	"datamime/internal/opt"
	"datamime/internal/profile"
	"datamime/internal/sim"
	"datamime/internal/telemetry"
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	// JobQueued: accepted, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: a worker is executing the search.
	JobRunning JobState = "running"
	// JobSucceeded: the search finished; the result is available.
	JobSucceeded JobState = "succeeded"
	// JobFailed: the search aborted with an error.
	JobFailed JobState = "failed"
	// JobCanceled: the client canceled the job.
	JobCanceled JobState = "canceled"
)

// terminal reports whether a state is final.
func (s JobState) terminal() bool {
	return s == JobSucceeded || s == JobFailed || s == JobCanceled
}

// ProfilingSpec overrides profiler budget knobs per job; zero fields keep
// the machine defaults (see profile.New), and a negative one is refused at
// submission. It lists profile.Spec's budgets a
// second time because its omitempty tags and persisted bytes (job logs,
// GET /v1/jobs/{id}) cannot be the always-marshaled wire form;
// TestSpecFieldsAreCovered holds the two listings together field by field.
type ProfilingSpec struct {
	WindowCycles      float64 `json:"window_cycles,omitempty"`
	Windows           int     `json:"windows,omitempty"`
	WarmupWindows     int     `json:"warmup_windows,omitempty"`
	CurveWindows      int     `json:"curve_windows,omitempty"`
	CurvePoints       int     `json:"curve_points,omitempty"`
	MaxRequestsPerRun int     `json:"max_requests_per_run,omitempty"`
	SkipCurves        bool    `json:"skip_curves,omitempty"`
}

// JobSpec describes one search job, as submitted over POST /v1/jobs. Exactly
// one objective source must be given: a registered workload (its hidden
// target is profiled first and the workload's generator is the default), an
// inline target profile (the paper's share-profiles-not-data workflow), or
// a single-metric target.
type JobSpec struct {
	// Workload names a registered evaluation workload ("mem-fb", ...).
	Workload string `json:"workload,omitempty"`
	// Generator names the dataset generator to search; defaults to the
	// workload's own generator when Workload is set.
	Generator string `json:"generator,omitempty"`
	// Machine selects the simulated platform (default "broadwell").
	Machine string `json:"machine,omitempty"`
	// Iterations is the evaluation budget. Required.
	Iterations int `json:"iterations"`
	// Parallel is how many evaluations the search keeps in flight at most
	// (default 1).
	Parallel int `json:"parallel,omitempty"`
	// Seed derives every stochastic stream.
	Seed uint64 `json:"seed,omitempty"`
	// Optimizer selects "bayesopt" (default), "random", or "anneal".
	Optimizer string `json:"optimizer,omitempty"`
	// TargetProfile is an inline profile JSON (as produced by
	// cmd/profiler) to match.
	TargetProfile json.RawMessage `json:"target_profile,omitempty"`
	// Metric and MetricValue define a single-metric objective instead of
	// a full profile match.
	Metric      string  `json:"metric,omitempty"`
	MetricValue float64 `json:"metric_value,omitempty"`
	// OnEvalError is "fail" (default) or "retry-skip" (retry a failed
	// evaluation once with a perturbed seed, then skip and record).
	OnEvalError string `json:"on_eval_error,omitempty"`
	// Backend selects where candidate evaluations run: "auto" (default —
	// use registered datamime-worker processes when any exist), "local"
	// (always in-process), or "remote" (always through the dispatcher,
	// which still falls back in-process if the whole fleet fails). All
	// choices produce bit-identical results for the same seed; the knob
	// only moves where the simulations execute.
	Backend string `json:"backend,omitempty"`
	// Profiling overrides profiler budgets.
	Profiling *ProfilingSpec `json:"profiling,omitempty"`
}

// withDefaults fills the job-level defaults, spelled here only: resolve and
// scenarioHash both read a spec through it, so "omitted" and "explicitly
// default" run, and hash, alike. Profiling budgets are not defaulted — zero
// keeps profile.New's, and the scenario hash takes them as submitted.
func (s JobSpec) withDefaults() JobSpec {
	if s.Machine == "" {
		s.Machine = "broadwell"
	}
	if s.Parallel <= 0 {
		s.Parallel = 1
	}
	if s.Optimizer == "" {
		s.Optimizer = "bayesopt"
	}
	if s.OnEvalError == "" {
		s.OnEvalError = "fail"
	}
	if s.Backend == "" {
		s.Backend = "auto"
	}
	return s
}

// JobResult summarizes a finished search, computed from the job's run.
type JobResult struct {
	// BestParams is the lowest-error parameter vector, in parameter units.
	BestParams []float64 `json:"best_params"`
	// BestValues renders BestParams with parameter names.
	BestValues string `json:"best_values"`
	// BestError is the objective value at BestParams.
	BestError float64 `json:"best_error"`
	// Evaluations, CacheHits, Skipped mirror core.Result.
	Evaluations int `json:"evaluations"`
	CacheHits   int `json:"cache_hits"`
	Skipped     int `json:"skipped"`
	// Components is the best iteration's per-metric error attribution
	// (unweighted normalized distances), when the objective records one.
	Components map[string]float64 `json:"components,omitempty"`
}

// JobStatus is the JSON view of a job returned by GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`
	Spec  JobSpec  `json:"spec"`
	// Iterations counts finished iterations (evaluations + skips), whose
	// records are /artifact's eval events; Total is the budget.
	Iterations int `json:"iterations_done"`
	Total      int `json:"iterations_total"`
	// Evaluations/CacheHits/CacheMisses/Skipped/SimCycles are live
	// counters. CacheHits+CacheMisses = Evaluations: every non-skipped
	// iteration either reused a cached profile or simulated a fresh one.
	Evaluations int     `json:"evaluations"`
	CacheHits   int     `json:"cache_hits"`
	CacheMisses int     `json:"cache_misses"`
	Skipped     int     `json:"skipped"`
	SimCycles   float64 `json:"sim_cycles"`
	// BestError is the running minimum (meaningful once Evaluations > 0).
	BestError float64    `json:"best_error"`
	Result    *JobResult `json:"result,omitempty"`
	Created   time.Time  `json:"created_at"`
	Started   *time.Time `json:"started_at,omitempty"`
	Finished  *time.Time `json:"finished_at,omitempty"`
	// DurationSeconds is the job's wall-clock run time: finished−started
	// for terminal jobs, time since start for running ones, 0 before start.
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	// Backend is the evaluation plane the job resolved to when it started:
	// "local" (in-process) or "dispatch" (sharded across the worker
	// fleet). Empty until the job starts running.
	Backend string `json:"backend,omitempty"`
}

// Job is one tracked search. All mutable fields are guarded by mu; its spec,
// state, timestamps, events and run are the fold of its log's lines
// (applyLocked).
type Job struct {
	mu   sync.Mutex
	id   string
	spec JobSpec
	// method is the profile method the job's log header recorded.
	method string
	// plan is what spec resolved to (Submit, or loadCheckpoints on a
	// restart), fixed before the job is published. It is nil, with planErr
	// saying why, only for a restored job whose spec no longer resolves — a
	// generator since unregistered.
	plan    *plan
	planErr error

	state  JobState
	errMsg string
	// events is the job's record, which backs /artifact: one eval event per
	// iteration, its search.diagnostics event before it when it has a
	// snapshot, and phase spans with telemetry. run is their one fold, made
	// as each is recorded (add); status, the result, the per-job gauges, the
	// corpus record and a resume all read it. foldErr is the first event the
	// fold refused: such a job is neither resumed nor indexed.
	events  []telemetry.Event
	run     inspect.Run
	foldErr error
	// rec is the job's corpus record, once its search succeeded and
	// indexRun judged it.
	rec *corpus.Record

	// logPath is the job's log; empty without persistence, or after a failed
	// write.
	logPath string

	// targetProf is the profile the search matches (nil for single-metric
	// objectives); bestProf is the profile measured at the best parameters.
	// Both back GET /v1/jobs/{id}/profiles and the HTML report's eCDF
	// overlays. Not persisted: restarts recover them from the shared
	// evaluation cache when possible (see jobProfiles).
	targetProf *profile.Profile
	bestProf   *profile.Profile

	// backend is the evaluation plane the job resolved to at start
	// ("local" or "dispatch").
	backend string

	// canceled marks a client cancel request (distinguishes a canceled
	// job from a server shutdown, which re-queues instead).
	canceled bool
	cancel   context.CancelFunc
	done     chan struct{}

	created  time.Time
	started  time.Time
	finished time.Time

	// eventsSig is closed and replaced whenever the job records a line,
	// waking the readers following its artifact.
	eventsSig chan struct{}
	// rewinds counts rewindLocked's truncations of the log; a follower that
	// sees it change ends, rather than splice two histories.
	rewinds  int
	recorder *telemetry.Recorder
}

// add records one event of the job and folds it into its run. The first
// event the fold refuses (an edited log's) is kept as the job's fold error.
// Callers hold j.mu, or the only reference to j.
func (j *Job) add(ev telemetry.Event) {
	j.events = append(j.events, ev)
	if err := j.run.Add(ev); err != nil && j.foldErr == nil {
		j.foldErr = fmt.Errorf("job log event %d: %w", len(j.events)-1, err)
	}
}

// applyLocked folds one log line into the job, live (Server.addLocked) or
// from its file (replayLog). Callers hold j.mu, or the only reference to j.
func (j *Job) applyLocked(l jobLine) {
	at := time.Unix(0, l.TimeNS)
	switch l.Type {
	case typeJobSpec:
		if l.Spec != nil {
			j.spec, j.method, j.state, j.created = *l.Spec, l.Method, JobQueued, at
		}
	case typeJobState:
		j.state = l.State
		switch {
		case l.State == JobRunning:
			j.started, j.finished = at, time.Time{}
		case l.State.terminal():
			j.finished, j.errMsg = at, l.Msg
		}
	case corpus.TypeRecord:
		j.rec = l.Record
	default:
		j.add(l.Event)
	}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state (or is re-queued by
// a server shutdown).
func (j *Job) Done() <-chan struct{} { return j.done }

// status snapshots the job.
func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	c := j.run.Counts()
	best, _ := j.run.Best()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Error:       j.errMsg,
		Spec:        j.spec,
		Iterations:  len(j.run.Evals),
		Total:       j.spec.Iterations,
		Evaluations: c.Evals,
		CacheHits:   c.CacheHits,
		CacheMisses: c.Misses,
		Skipped:     c.Skipped,
		BestError:   best.Record.Error,
		Created:     j.created,
		Backend:     j.backend,
	}
	for _, ev := range j.run.Evals {
		st.SimCycles += ev.SimCycles
	}
	if j.state == JobSucceeded {
		st.Result = j.resultLocked()
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
		if !j.finished.IsZero() {
			st.DurationSeconds = j.finished.Sub(j.started).Seconds()
		} else {
			st.DurationSeconds = time.Since(j.started).Seconds()
		}
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// resultLocked computes the job's result from its run. Callers hold j.mu.
func (j *Job) resultLocked() *JobResult {
	c := j.run.Counts()
	r := &JobResult{Evaluations: c.Evals, CacheHits: c.CacheHits, Skipped: c.Skipped}
	if best, ok := j.run.Best(); ok {
		r.BestParams, r.BestError, r.Components = best.Record.Params, best.Record.Error, best.Record.Components
		if j.plan != nil && len(r.BestParams) == j.plan.generator.Space.Dim() {
			r.BestValues = j.plan.generator.Space.Values(r.BestParams)
		}
	}
	return r
}

// wakeLocked wakes the job's followers. Callers hold j.mu.
func (j *Job) wakeLocked() {
	if j.eventsSig != nil {
		close(j.eventsSig)
	}
	j.eventsSig = make(chan struct{})
}

// sigLocked returns the channel the next wake will close, creating it on
// first use. Callers hold j.mu.
func (j *Job) sigLocked() chan struct{} {
	if j.eventsSig == nil {
		j.eventsSig = make(chan struct{})
	}
	return j.eventsSig
}

// The names a spec may give its optimizer, failure policy and evaluation
// backend: each table both validates the name and constructs what it names.
var (
	optimizers = map[string]func(*opt.Space, uint64) opt.Optimizer{
		// nil selects the paper's Bayesian optimizer inside core.Search.
		"bayesopt": func(*opt.Space, uint64) opt.Optimizer { return nil },
		"random":   func(sp *opt.Space, seed uint64) opt.Optimizer { return opt.NewRandomSearch(sp, seed) },
		"anneal":   func(sp *opt.Space, seed uint64) opt.Optimizer { return opt.NewAnneal(sp, seed, 0, 0) },
	}
	evalErrorPolicies = map[string]core.EvalErrorPolicy{
		"fail":       core.EvalFailFast,
		"retry-skip": core.EvalRetrySkip,
	}
	// evalBackends say where candidate evaluations run, asked when the job
	// starts: nil is the classic in-process path (cfg.Evaluator unset),
	// bit-identical to the dispatched one by the backend contract.
	evalBackends = map[string]func(*backend.Dispatcher) backend.EvalBackend{
		"local": func(*backend.Dispatcher) backend.EvalBackend { return nil },
		// The dispatcher still falls back in-process if the fleet fails.
		"remote": func(d *backend.Dispatcher) backend.EvalBackend { return d },
		"auto": func(d *backend.Dispatcher) backend.EvalBackend {
			if d.HasWorkers() {
				return d
			}
			return nil
		},
	}
)

// plan is what a JobSpec means on this server: every name looked up and every
// default applied, once, by resolve. It is a pure function of the spec and the
// registries, so a restart rebuilds the plan a job ran with (which is what
// lets jobProfiles reconstruct cache keys), and it is never written again.
type plan struct {
	spec      JobSpec           // job-level defaults applied
	workload  *harness.Workload // nil for metric and inline-profile objectives
	generator datagen.Generator // the spec's, else the workload's own
	// profiler is the machine with the spec's overrides, built by the
	// server's LocalBackend so it shares the process's one budget.
	profiler *profile.Profiler
	// objective is the metric target or the decoded inline profile; nil for
	// a workload job, whose hidden target is profiled — or recalled from the
	// shared cache under targetKey — when the job starts.
	objective core.Objective
	targetKey string
	target    string // what is matched, for logs and corpus records

	optimizer   func(*opt.Space, uint64) opt.Optimizer
	onEvalError core.EvalErrorPolicy
	evalBackend func(*backend.Dispatcher) backend.EvalBackend
}

// resolve is the coordinator's door, the only place a spec's names and
// defaults are read. What it refuses cannot run, so Submit refuses it before
// a job exists; everything downstream reads the plan.
func (s *Server) resolve(spec JobSpec) (*plan, error) {
	spec = spec.withDefaults()
	p := &plan{spec: spec}
	if spec.Iterations <= 0 {
		return nil, fmt.Errorf("service: iterations must be positive, got %d", spec.Iterations)
	}

	machine, err := sim.MachineByName(spec.Machine)
	if err != nil {
		return nil, unknownName("machine", spec.Machine, sim.Machines(), func(m sim.MachineConfig) string { return m.Name })
	}
	p.profiler = s.local.Profiler(machine)
	if o := spec.Profiling; o != nil {
		b := &p.profiler.Spec
		err := errors.Join(
			override(&b.WindowCycles, o.WindowCycles, "window_cycles"),
			override(&b.Windows, o.Windows, "windows"),
			override(&b.WarmupWindows, o.WarmupWindows, "warmup_windows"),
			override(&b.CurveWindows, o.CurveWindows, "curve_windows"),
			override(&b.CurvePoints, o.CurvePoints, "curve_points"),
			override(&b.MaxRequestsPerRun, o.MaxRequestsPerRun, "max_requests_per_run"),
		)
		if err != nil {
			return nil, err
		}
		b.SkipCurves = o.SkipCurves
	}

	sources := 0
	genName := spec.Generator
	if spec.Workload != "" {
		sources++
		w, err := harness.WorkloadByName(spec.Workload)
		if err != nil {
			return nil, unknownName("workload", spec.Workload,
				append(harness.Workloads(), harness.CaseStudyWorkloads()...), func(w harness.Workload) string { return w.Name })
		}
		p.workload = &w
		p.target = w.Name
		p.targetKey = core.EvalKey("target/"+w.Name, p.profiler, nil, spec.Seed)
		if genName == "" {
			genName = w.Generator.Name
		}
	}
	if spec.Metric != "" {
		sources++
		// A metric nobody measures scores every candidate against
		// Mean(nil) = 0: the job would "succeed" at a constant error.
		metrics := append(append([]profile.MetricID(nil), profile.ScalarMetrics...), profile.MetricCompress)
		if !slices.Contains(metrics, profile.MetricID(spec.Metric)) {
			return nil, unknownName("metric", spec.Metric, metrics, func(m profile.MetricID) string { return string(m) })
		}
		p.objective = core.MetricObjective{Metric: profile.MetricID(spec.Metric), Value: spec.MetricValue}
		p.target = fmt.Sprintf("%s=%g", spec.Metric, spec.MetricValue)
	}
	if len(spec.TargetProfile) > 0 {
		sources++
		target, err := profile.DecodeJSON(spec.TargetProfile)
		if err != nil {
			return nil, fmt.Errorf("service: target_profile: %w", err)
		}
		p.objective = core.NewProfileObjective(target, core.NewErrorModel())
		p.target = "inline-profile"
	}
	if sources != 1 {
		return nil, fmt.Errorf("service: exactly one of workload, target_profile, or metric must be set")
	}

	if genName == "" {
		return nil, fmt.Errorf("service: generator is required without a workload")
	}
	if p.generator, err = s.local.Generator(genName); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if p.optimizer, err = pick("optimizer", spec.Optimizer, optimizers); err != nil {
		return nil, err
	}
	if p.onEvalError, err = pick("on_eval_error", spec.OnEvalError, evalErrorPolicies); err != nil {
		return nil, err
	}
	if p.evalBackend, err = pick("backend", spec.Backend, evalBackends); err != nil {
		return nil, err
	}
	return p, nil
}

// pick looks a name up in one of the tables above.
func pick[T any](field, name string, table map[string]T) (T, error) {
	v, ok := table[name]
	if !ok {
		choices := make([]string, 0, len(table))
		for k := range table {
			choices = append(choices, k)
		}
		sort.Strings(choices)
		return v, unknownName(field, name, choices, func(s string) string { return s })
	}
	return v, nil
}

// unknownName refuses a name, saying what would have been accepted.
func unknownName[T any](field, value string, choices []T, name func(T) string) error {
	names := make([]string, len(choices))
	for i, c := range choices {
		names[i] = name(c)
	}
	return fmt.Errorf("service: unknown %s %q (want one of: %s)", field, value, strings.Join(names, ", "))
}

// override replaces *dst with a job's budget override, named field in the
// job spec; zero keeps the default, and a negative value is refused.
func override[T int | float64](dst *T, v T, field string) error {
	if v < 0 {
		return fmt.Errorf("service: profiling.%s must not be negative, got %v", field, v)
	}
	if v > 0 {
		*dst = v
	}
	return nil
}

// buildSearch turns a plan into a runnable core.SearchConfig. The returned
// config has no Cache/Resume/callbacks; the worker wires those. Profiling the
// hidden target of a workload job happens here (via the shared cache when
// possible), so it counts toward the running state.
func (s *Server) buildSearch(ctx context.Context, p *plan) (core.SearchConfig, error) {
	// A copy: runJob hangs the job's recorder on the search's profiler while
	// jobProfiles may be reading the plan's.
	profiler := *p.profiler
	cfg := core.SearchConfig{
		Generator:   p.generator,
		Profiler:    &profiler,
		Objective:   p.objective,
		Optimizer:   p.optimizer(p.generator.Space, p.spec.Seed),
		OnEvalError: p.onEvalError,
		Iterations:  p.spec.Iterations,
		Parallel:    p.spec.Parallel,
		Seed:        p.spec.Seed,
	}
	if p.workload != nil {
		target, ok := s.cache.Get(p.targetKey)
		if !ok {
			var err error
			if target, err = s.profileTarget(ctx, p); err != nil {
				return cfg, fmt.Errorf("profiling target %s: %w", p.workload.Name, err)
			}
			s.cache.Put(p.targetKey, target)
		}
		cfg.Objective = core.NewProfileObjective(target, core.NewErrorModel())
	}
	return cfg, nil
}
