package core

import (
	"context"
	"fmt"
	"strings"

	"datamime/internal/datagen"
	"datamime/internal/opt"
	"datamime/internal/profile"
	"datamime/internal/stats"
	"datamime/internal/telemetry"
)

// EvalErrorPolicy selects how Search reacts to a profiling failure.
type EvalErrorPolicy int

const (
	// EvalFailFast aborts the search on the first profiling error (the
	// historical behavior, and the default).
	EvalFailFast EvalErrorPolicy = iota
	// EvalRetrySkip retries a failed evaluation once with a perturbed
	// profiling seed; if that fails too, the iteration is skipped and
	// recorded (Result.Skipped, an EvalEvent with Skipped set) and the
	// search continues. Long searches degrade gracefully instead of losing
	// hours of progress to one flaky candidate.
	EvalRetrySkip
)

// Evaluator measures one candidate out of process. Implementations receive
// the denormalized parameter vector and the deterministic per-iteration
// profiling seed, and must return the profile the search's own Profiler
// would have measured for them — the determinism contract that keeps
// distributed runs bit-identical to local ones (internal/backend provides
// conforming implementations). The context carries search cancellation.
type Evaluator interface {
	Evaluate(ctx context.Context, x []float64, seed uint64) (*profile.Profile, error)
}

// SearchConfig drives one Datamime search: find the generator parameters
// whose benchmark minimizes the objective (Eq. 2).
type SearchConfig struct {
	// Generator is the dataset generator to search (space + factory).
	Generator datagen.Generator
	// Objective scores each candidate profile (ProfileObjective for the
	// paper's search, MetricObjective for range sweeps). Objectives that
	// also implement AttributedObjective get per-component error
	// attribution recorded in the trace and eval events.
	Objective Objective
	// Profiler measures candidates. For MetricObjective sweeps without
	// curve components, have its Spec skip the curve sweep to save time.
	Profiler *profile.Profiler
	// Iterations is the evaluation budget (the paper runs 200).
	Iterations int
	// Optimizer proposes parameters; nil selects the paper's Bayesian
	// optimizer. Baselines (random search, annealing) plug in here for the
	// ablations.
	Optimizer opt.Optimizer
	// Seed derives every stochastic stream: optimizer proposals and the
	// per-iteration profiling seeds (so repeated evaluations of the same
	// point measure with noise, as on real hardware).
	Seed uint64
	// Telemetry, when non-nil, receives spans for every pipeline phase
	// (propose / generate / profile / observe, plus the optimizer's GP-fit
	// and acquisition timings) and one eval event per iteration, carrying
	// the per-metric EMD attribution and preceded by the record's
	// search.diagnostics event when it has one. Telemetry is off by
	// default; a nil recorder costs one nil check per phase and never
	// perturbs determinism — enabling or disabling it cannot change
	// proposals, seeds, traces, or results.
	Telemetry *telemetry.Recorder
	// Parallel proposes batches of this many candidates, using
	// constant-liar batch proposals when the optimizer supports them
	// (parallel Bayesian optimization — the future work the paper defers
	// in §IV), and keeps at most this many evaluations in flight. Design
	// points do not wait for a batch: a batch whose points depend on no
	// observation (opt.Planner, e.g. BayesOpt's initial design) starts as
	// slots free, while a batch holding proposals waits until every earlier
	// iteration has been observed. Results are observed in iteration order
	// either way. <= 1 runs the paper's serial loop. The trace holds one
	// record per evaluation, and the run is deterministic for a given
	// (Seed, Parallel).
	Parallel int
	// ProfileWorkers has no effect. When the Profiler has no Budget, the
	// search gives a private copy of it one of max(Parallel,
	// ProfileWorkers) concurrent profiles, but a profile is one pass on one
	// core and the search runs at most Parallel at once, so a width above
	// Parallel never binds. It is kept only because the benchmark harness
	// sets it; it goes, with its max term, when that harness next changes.
	ProfileWorkers int
	// OnEvalError selects the failure policy (default EvalFailFast).
	OnEvalError EvalErrorPolicy
	// Cache, when non-nil, is consulted before profiling each candidate
	// and filled with every fresh measurement (see EvalCache).
	Cache EvalCache
	// Evaluator, when non-nil, replaces the in-process generate+profile path
	// for fresh measurements: each cache-missing candidate is handed to it
	// (typically a dispatcher sharding evaluations across a worker fleet)
	// instead of Generator.Benchmark + Profiler.ProfileContext. The cache
	// lookup, EvalKey derivation, per-iteration seeds, objective scoring,
	// and optimizer feedback all stay in-process and unchanged, so a search
	// with a deterministic Evaluator (one returning exactly what the local
	// profiler would measure) is bit-for-bit identical to a local run.
	// Profiler is still required: it defines the measurement spec the
	// Evaluator must honor, and keys the cache.
	Evaluator Evaluator
	// Resume warm-starts the search from the leading iterations of an
	// earlier run with the same configuration: the events its OnEval saw,
	// or inspect.LoadRun's Evals of its artifact, up to the first without a
	// U. Each is replayed through the
	// optimizer (identical proposals, Observe calls, and trace records)
	// without re-profiling while its point matches the live proposal; from
	// the first that does not, the search continues live. A resumed search
	// is bit-for-bit identical to an uninterrupted one.
	Resume []EvalEvent
	// OnEval, when non-nil, is called after every iteration (including
	// replayed and skipped ones), in iteration order, from the search
	// goroutine. The events it saw are what Resume takes.
	OnEval func(EvalEvent)
}

// Validate reports configuration errors.
func (c *SearchConfig) Validate() error {
	if c.Generator.Space == nil || c.Generator.Benchmark == nil {
		return fmt.Errorf("core: search needs a generator with space and factory")
	}
	if c.Objective == nil {
		return fmt.Errorf("core: search needs an objective")
	}
	if c.Profiler == nil {
		return fmt.Errorf("core: search needs a profiler")
	}
	if c.Iterations <= 0 {
		return fmt.Errorf("core: Iterations must be positive, got %d", c.Iterations)
	}
	if c.ProfileWorkers < 0 {
		return fmt.Errorf("core: ProfileWorkers must be >= 0, got %d", c.ProfileWorkers)
	}
	return nil
}

// IterationRecord is one step of the search trace.
type IterationRecord struct {
	Iteration int       `json:"iteration"`
	Params    []float64 `json:"params"`
	Error     float64   `json:"error"`
	// BestError is the minimum observed error up to and including this
	// iteration — the quantity Fig. 10 plots.
	BestError float64 `json:"best_error"`
	// Components is the per-metric error attribution (unweighted component
	// distances, keyed by Component name) when the objective implements
	// AttributedObjective; nil otherwise. It shows which metric drove the
	// error at this iteration.
	Components map[string]float64 `json:"emd_components,omitempty"`
	// Diagnostics is the GP search-health snapshot of the surrogate fit
	// that proposed this iteration (the first non-skipped iteration of each
	// batch carries its batch's snapshot; initial-design iterations carry
	// none). Derived read-only from factorizations the proposal already
	// materialized, so it is present and bit-identical whether or not
	// telemetry is enabled, and it never enters EvalKey or Resume (a
	// replay recomputes it). EvalEvent.DiagnosticsEvent writes it out.
	Diagnostics *opt.Diagnostics `json:"diagnostics,omitempty"`
}

// EvalEvent describes one finished iteration: live, for OnEval observers
// (the datamimed service grows job traces, metrics, and event streams from
// it), read back from an artifact line (inspect.Run.Evals), and replayed
// from SearchConfig.Resume.
type EvalEvent struct {
	// Record is the trace record; zero-valued except Iteration when
	// Skipped.
	Record IterationRecord
	// U is the proposed point in the unit cube, which a replay matches
	// against the live proposal.
	U []float64
	// Skipped marks a failed evaluation excluded from the trace.
	Skipped bool
	// Err is the profiling error message for skipped iterations.
	Err string
	// Replayed marks an iteration replayed from SearchConfig.Resume.
	Replayed bool
	// CacheHit marks an evaluation served from the EvalCache.
	CacheHit bool
	// Retried marks an evaluation that succeeded on its perturbed-seed
	// retry.
	Retried bool
	// SimCycles estimates the simulated cycles this evaluation cost
	// (0 for cache hits and replays).
	SimCycles float64
}

// TelemetryEvent encodes the iteration as the eval event of the JSONL run
// artifact, which /artifact?follow=1 streams live — the one place the eval
// attribute conventions are written: error/best_error (completed
// evaluations only), 0/1 flags, sim_cycles, per-metric "emd_*" attribution,
// and the skip reason as the message. EvalEventFromTelemetry below is its
// inverse. Build it only for an enabled recorder or a sink that wants it: it
// allocates.
func (ev EvalEvent) TelemetryEvent() telemetry.Event {
	attrs := make(map[string]float64, 4+len(ev.Record.Components))
	if !ev.Skipped {
		attrs[telemetry.AttrError] = ev.Record.Error
		attrs[telemetry.AttrBestError] = ev.Record.BestError
	}
	if ev.CacheHit {
		attrs[telemetry.AttrCacheHit] = 1
	}
	if ev.Retried {
		attrs[telemetry.AttrRetried] = 1
	}
	if ev.Replayed {
		attrs[telemetry.AttrReplayed] = 1
	}
	if ev.SimCycles > 0 {
		attrs[telemetry.AttrSimCycles] = ev.SimCycles
	}
	for k, v := range ev.Record.Components {
		attrs[telemetry.EMDPrefix+k] = v
	}
	return telemetry.Event{
		Type:    telemetry.TypeEval,
		Iter:    ev.Record.Iteration,
		Skipped: ev.Skipped,
		Msg:     ev.Err,
		Params:  ev.Record.Params,
		U:       ev.U,
		Attrs:   attrs,
	}
}

// DiagnosticsEvent encodes the record's search-health snapshot as the
// search.diagnostics event that every writer puts immediately before the
// record's eval event, stamped with the record's iteration; ok is false when
// the record carries no snapshot. opt.DiagnosticsFromAttrs decodes it.
func (ev EvalEvent) DiagnosticsEvent() (tev telemetry.Event, ok bool) {
	d := ev.Record.Diagnostics
	if d == nil {
		return tev, false
	}
	return telemetry.Event{
		Type:  telemetry.TypeSearchDiagnostics,
		Iter:  ev.Record.Iteration,
		Attrs: d.Attrs(),
	}, true
}

// EvalEventFromTelemetry is the inverse of TelemetryEvent: it decodes an
// eval event read back from a run artifact line. A completed
// evaluation without a best_error attribute is an error — every writer sets
// one, so its absence means the artifact convention was broken, not the file
// truncated. Attributes it does not know are ignored, so lines written with
// retired attributes still load. Record.Diagnostics is not part of the eval
// event (the snapshot is the preceding search.diagnostics event, see
// DiagnosticsEvent) and stays nil.
func EvalEventFromTelemetry(tev telemetry.Event) (EvalEvent, error) {
	ev := EvalEvent{
		Record:    IterationRecord{Iteration: tev.Iter, Params: tev.Params},
		U:         tev.U,
		Skipped:   tev.Skipped,
		Err:       tev.Msg,
		Replayed:  tev.Attrs[telemetry.AttrReplayed] != 0,
		CacheHit:  tev.Attrs[telemetry.AttrCacheHit] != 0,
		Retried:   tev.Attrs[telemetry.AttrRetried] != 0,
		SimCycles: tev.Attrs[telemetry.AttrSimCycles],
	}
	if !ev.Skipped {
		best, ok := tev.Attrs[telemetry.AttrBestError]
		if !ok {
			return ev, fmt.Errorf("eval event without %s", telemetry.AttrBestError)
		}
		ev.Record.Error = tev.Attrs[telemetry.AttrError]
		ev.Record.BestError = best
	}
	for k, v := range tev.Attrs {
		if name, ok := strings.CutPrefix(k, telemetry.EMDPrefix); ok {
			if ev.Record.Components == nil {
				ev.Record.Components = make(map[string]float64)
			}
			ev.Record.Components[name] = v
		}
	}
	return ev, nil
}

// Result is the outcome of a search.
type Result struct {
	// BestParams is the lowest-error parameter vector, in parameter units.
	BestParams []float64
	// BestError is its objective value.
	BestError float64
	// BestProfile is the profile measured at the best parameters. It can
	// be nil if the best iteration was replayed from Resume and its
	// profile could not be recovered from the cache or re-measured.
	BestProfile *profile.Profile
	// Trace is the per-iteration history (for convergence plots). Skipped
	// iterations leave gaps in the Iteration numbering.
	Trace []IterationRecord
	// Evaluations counts objective evaluations performed (replayed ones
	// included, skipped ones excluded).
	Evaluations int
	// Skipped counts iterations dropped under EvalRetrySkip.
	Skipped int
	// CacheHits counts evaluations served from the EvalCache.
	CacheHits int
	// SimulatedCycles estimates the total simulated cycles spent on fresh
	// profiling (cache hits and replays cost none).
	SimulatedCycles float64
}

// Search runs the optimization loop: propose parameters, generate the
// dataset, run and profile the benchmark, score it against the objective,
// and feed the error back to the optimizer (Fig. 5's loop).
func Search(cfg SearchConfig) (*Result, error) {
	return SearchContext(context.Background(), cfg)
}

// evalResult is one iteration's outcome: its event, the profile it measured
// (nil for skips and replays), and an error that aborts the search.
type evalResult struct {
	ev   EvalEvent
	prof *profile.Profile
	err  error
}

// slot is one iteration in the scheduler: the point proposed for it, whether
// it opens a batch (first) and that batch's search-health snapshot, and its
// outcome once done. An evaluation goroutine writes only its own slot's
// evalResult.
type slot struct {
	evalResult
	u     []float64
	first bool
	diag  *opt.Diagnostics
	done  bool
}

// SearchContext is Search with cancellation: the context is checked before
// each proposal, observation and candidate evaluation, and between profiling
// phases, so a cancel or deadline stops the search within roughly one
// evaluation. On cancellation it returns the partial Result alongside ctx's
// error, once the evaluations in flight have stopped; the events OnEval saw
// resume the search later (SearchConfig.Resume).
func SearchContext(ctx context.Context, cfg SearchConfig) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	optimizer := cfg.Optimizer
	if optimizer == nil {
		optimizer = opt.NewBayesOpt(cfg.Generator.Space, opt.BayesOptConfig{Seed: cfg.Seed})
	}
	planner, _ := optimizer.(opt.Planner)
	space := cfg.Generator.Space
	rec := cfg.Telemetry

	parallel := cfg.Parallel
	if parallel < 1 {
		parallel = 1
	}

	// Cap the simulations in flight with one budget of max(Parallel,
	// ProfileWorkers) profiles, on a copy, leaving the caller's Profiler
	// untouched. The Budget does not enter EvalKey: it cannot change a
	// measured profile.
	profiler := cfg.Profiler
	if simCap := max(parallel, cfg.ProfileWorkers); simCap > 1 && cfg.Profiler.Budget == nil {
		pc := *cfg.Profiler
		pc.Budget = profile.NewBudget(simCap)
		profiler = &pc
	}

	batchRNG := stats.NewRNG(stats.HashSeed(cfg.Seed, "batch-fallback"))
	replay := cfg.Resume

	res := &Result{BestError: 0}
	best := -1
	bestRetried := false

	// Evaluations run under evalCtx, which the search cancels when it stops
	// early, so none outlives it.
	evalCtx, cancelEvals := context.WithCancel(ctx)
	defer cancelEvals()

	// profileAt measures (or recalls) the candidate x under one seed.
	profileAt := func(it int, x []float64, seed uint64) (prof *profile.Profile, hit bool, err error) {
		var key string
		if cfg.Cache != nil {
			key = EvalKey(cfg.Generator.Name, profiler, x, seed)
			if p, ok := cfg.Cache.Get(key); ok {
				return p, true, nil
			}
		}
		var p *profile.Profile
		if cfg.Evaluator != nil {
			// Dispatched evaluation: generation and profiling both happen
			// behind the Evaluator (possibly on another machine), so the
			// whole round-trip is accounted to the profile phase.
			profSpan := rec.StartSpan(telemetry.PhaseProfile, it)
			p, err = cfg.Evaluator.Evaluate(evalCtx, x, seed)
			profSpan.End(nil)
		} else {
			genSpan := rec.StartSpan(telemetry.PhaseGenerate, it)
			bench := cfg.Generator.Benchmark(x)
			genSpan.End(nil)
			profSpan := rec.StartSpan(telemetry.PhaseProfile, it)
			p, err = profiler.ProfileContext(evalCtx, bench, seed)
			profSpan.End(nil)
		}
		if err != nil {
			return nil, false, err
		}
		if cfg.Cache != nil {
			cfg.Cache.Put(key, p)
		}
		return p, false, nil
	}

	// evalOne runs the full evaluation of iteration it: cache lookup,
	// profiling, the retry-then-skip policy, and objective scoring with
	// per-component attribution when the objective supports it.
	evalOne := func(it int, u []float64) evalResult {
		if err := evalCtx.Err(); err != nil {
			return evalResult{err: err}
		}
		x := space.Denormalize(u)
		prof, hit, err := profileAt(it, x, IterationSeed(cfg.Seed, it, false))
		retried := false
		if err != nil && cfg.OnEvalError == EvalRetrySkip && evalCtx.Err() == nil {
			retried = true
			prof, hit, err = profileAt(it, x, IterationSeed(cfg.Seed, it, true))
		}
		if err != nil {
			if cfg.OnEvalError == EvalRetrySkip && evalCtx.Err() == nil {
				return evalResult{ev: EvalEvent{Record: IterationRecord{Iteration: it}, Skipped: true, Err: err.Error(), Retried: retried}}
			}
			return evalResult{err: err}
		}
		ev := EvalEvent{Record: IterationRecord{Iteration: it, Params: x}, CacheHit: hit, Retried: retried}
		if ao, ok := cfg.Objective.(AttributedObjective); ok {
			ev.Record.Error, ev.Record.Components = ao.EvaluateAttributed(prof)
		} else {
			ev.Record.Error = cfg.Objective.Evaluate(prof)
		}
		if !hit {
			ev.SimCycles = profiler.Cycles(len(prof.Curve))
		}
		return evalResult{ev: ev, prof: prof}
	}

	// The scheduler. Iterations are proposed, started and observed in
	// order, with proposed >= started >= observed, and at most parallel
	// evaluations in flight. The optimizer sees NextBatch and Observe calls
	// at exactly the boundaries of a lockstep batch loop: a batch is proposed
	// once every earlier iteration has been observed, or earlier when the
	// optimizer's next k points depend on no observation (opt.Planner, e.g.
	// an initial design), and only when a slot is free and every proposed
	// iteration has started. So only when an evaluation starts can change.
	slots := make([]slot, cfg.Iterations)
	// done carries finished iterations. It holds as many as can be in
	// flight, so an evaluation's send never blocks.
	done := make(chan int, parallel)
	proposed, started, observed, inflight := 0, 0, 0, 0
	failed := false
	var diag *opt.Diagnostics

	// stop cancels the evaluations in flight and waits for them.
	stop := func() {
		cancelEvals()
		for ; inflight > 0; inflight-- {
			<-done
		}
	}

	// propose asks the optimizer for the batch of k iterations starting at
	// proposed, drains its diagnostics and timings, and replays the leading
	// iterations that match Resume (they have nothing to start).
	propose := func(k int) {
		it := proposed
		proposeSpan := rec.StartSpan(telemetry.PhasePropose, it)
		batch := opt.FallbackBatch(optimizer, space, k, batchRNG)
		batch = batch[:min(len(batch), cfg.Iterations-it)]
		// Drain the search-health snapshot unconditionally: it rides on a
		// trace record whether or not telemetry is on (it is deterministic
		// and read-only, so both runs carry bit-equal values), and leaving
		// it undrained would smear one batch's snapshot into the next.
		slots[it].first = true
		if dr, ok := optimizer.(opt.DiagnosticsReporter); ok {
			if d, ok := dr.TakeDiagnostics(); ok {
				slots[it].diag = &d
			}
		}
		var proposeAttrs map[string]float64
		if rec.Enabled() {
			proposeAttrs = map[string]float64{"batch": float64(len(batch))}
			if tr, ok := optimizer.(opt.TimingReporter); ok {
				if t, ok := tr.TakeTimings(); ok {
					rec.RecordSpan(telemetry.PhaseGPFit, it, t.GPFit, map[string]float64{
						telemetry.AttrCholeskyAppends:  float64(t.CholeskyAppends),
						telemetry.AttrCholeskyRebuilds: float64(t.CholeskyRebuilds),
					})
					rec.RecordSpan(telemetry.PhaseAcquisition, it, t.Acquisition,
						map[string]float64{"proposals": float64(t.Proposals)})
				}
			}
		}
		proposeSpan.End(proposeAttrs)
		for i, u := range batch {
			gi := it + i
			s := &slots[gi]
			s.u = u
			if gi < len(replay) && sameUnitPoint(replay[gi].U, u) {
				was := replay[gi]
				s.ev = EvalEvent{Record: IterationRecord{Iteration: gi}, Skipped: was.Skipped, Retried: was.Retried, Replayed: true}
				if was.Skipped {
					s.ev.Err = was.Err
				} else {
					s.ev.Record.Params = space.Denormalize(u)
					s.ev.Record.Error, s.ev.Record.Components = was.Record.Error, was.Record.Components
				}
				s.done = true
				continue
			}
			if gi < len(replay) {
				// The resumed run diverged from the live proposal stream
				// (e.g. a different binary recorded it). Stop replaying and
				// evaluate the rest live.
				replay = replay[:gi]
			}
		}
		proposed += len(batch)
		// Replayed iterations lead their batch, and nothing is in flight
		// while they are proposed.
		for started < proposed && slots[started].done {
			started++
		}
	}

	// observe feeds the next iteration in order back to the optimizer and
	// records it.
	observe := func(s *slot) {
		observeSpan := rec.StartSpan(telemetry.PhaseObserve, observed)
		if s.first {
			diag = s.diag
		}
		ev := s.ev
		ev.U = append([]float64(nil), s.u...)
		if ev.Skipped {
			res.Skipped++
		} else {
			optimizer.Observe(s.u, ev.Record.Error)
			res.Evaluations++
			if best < 0 || ev.Record.Error < res.BestError {
				best, bestRetried = ev.Record.Iteration, ev.Retried
				res.BestError, res.BestParams, res.BestProfile = ev.Record.Error, ev.Record.Params, s.prof
			}
			ev.Record.BestError = res.BestError
			// The batch's snapshot rides on its first recorded iteration
			// (the proposal the diagnosed fit chose).
			ev.Record.Diagnostics, diag = diag, nil
			res.Trace = append(res.Trace, ev.Record)
			if ev.CacheHit {
				res.CacheHits++
			}
			res.SimulatedCycles += ev.SimCycles
		}
		if rec.Enabled() {
			if dev, ok := ev.DiagnosticsEvent(); ok {
				rec.Emit(dev)
			}
			rec.Emit(ev.TelemetryEvent())
		}
		if cfg.OnEval != nil {
			cfg.OnEval(ev)
		}
		observeSpan.End(nil)
	}

	for observed < cfg.Iterations {
		if err := ctx.Err(); err != nil {
			stop()
			return res, err
		}
		if s := &slots[observed]; s.done {
			if s.err != nil {
				stop()
				return res, fmt.Errorf("core: profiling iteration %d: %w", observed, s.err)
			}
			observe(s)
			// Release the slot's profile; observed iterations are not read
			// again.
			*s = slot{}
			observed++
			continue
		}
		if inflight < parallel && !failed {
			if started < proposed {
				inflight++
				go func(it int, u []float64) {
					slots[it].evalResult = evalOne(it, u)
					done <- it
				}(started, slots[started].u)
				started++
				continue
			}
			if k := min(parallel, cfg.Iterations-proposed); k > 0 &&
				(observed == proposed || planner != nil && planner.Planned() >= k) {
				propose(k)
				continue
			}
		}
		it := <-done
		inflight--
		slots[it].done = true
		// A failed evaluation ends the search once the iterations before it
		// are observed; start nothing more meanwhile.
		failed = failed || slots[it].err != nil
	}

	// A best iteration replayed from Resume carries no profile; recover it
	// — free when the evaluation cache still holds it, one extra profiling
	// run otherwise.
	if res.BestProfile == nil && best >= 0 && ctx.Err() == nil {
		if prof, _, err := profileAt(best, res.BestParams, IterationSeed(cfg.Seed, best, bestRetried)); err == nil {
			res.BestProfile = prof
		}
	}
	return res, nil
}

// BestComponents returns the per-metric error attribution of the best
// iteration (the trace record whose Error equals BestError, earliest
// first), or nil when the objective attributes nothing.
func (r Result) BestComponents() map[string]float64 {
	for _, rec := range r.Trace {
		if rec.Error == r.BestError {
			return rec.Components
		}
	}
	return nil
}

// IterationSeed returns the deterministic profiling seed of one iteration
// of a search configured with seed; the retry stream is disjoint so a flaky
// measurement is re-attempted under different noise. It is the
// content-address ingredient a caller needs to look a past evaluation up in
// an EvalCache (together with EvalKey) without re-running the search — e.g.
// to recover the best candidate's profile from a job log after a restart.
func IterationSeed(seed uint64, it int, retry bool) uint64 {
	if retry {
		return stats.HashSeed(seed, fmt.Sprintf("retry-%d", it))
	}
	return stats.HashSeed(seed, fmt.Sprintf("iter-%d", it))
}

// MinEMDTrace extracts the Fig. 10 series from a result: the running
// minimum error per iteration.
func (r *Result) MinEMDTrace() []float64 {
	out := make([]float64, len(r.Trace))
	for i, rec := range r.Trace {
		out[i] = rec.BestError
	}
	return out
}
