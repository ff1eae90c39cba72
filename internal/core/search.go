package core

import (
	"context"
	"fmt"
	"strings"
	"sync"

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
	// recorded (Result.Skipped, checkpoint entry with Skipped set) and the
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
	// attribution recorded in the trace and checkpoints.
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
	// Parallel evaluates batches of this many candidates concurrently,
	// using constant-liar batch proposals when the optimizer supports them
	// (parallel Bayesian optimization — the future work the paper defers
	// in §IV). <= 1 runs the paper's serial loop. Results are identical in
	// structure either way: the trace holds one record per evaluation, and
	// the run is deterministic for a given (Seed, Parallel).
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
	// Resume, when non-nil, warm-starts the search from a checkpoint:
	// recorded iterations are replayed through the optimizer (identical
	// proposals, Observe calls, and trace records) without re-profiling,
	// then the search continues live. A resumed search is bit-for-bit
	// identical to an uninterrupted one.
	Resume *Checkpoint
	// OnEval, when non-nil, is called after every iteration (including
	// replayed and skipped ones), in iteration order, from the search
	// goroutine. CheckpointFromEvents resumes from recorded ones.
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
	// telemetry is enabled, and — like Components — it never enters
	// EvalKey or checkpoints. EvalEvent.DiagnosticsEvent writes it out.
	Diagnostics *opt.Diagnostics `json:"diagnostics,omitempty"`
}

// EvalEvent describes one finished iteration: live, for OnEval observers
// (the datamimed service grows job traces, metrics, and event streams from
// it), and read back from an artifact line (inspect.Run.Evals).
type EvalEvent struct {
	// Record is the trace record; zero-valued except Iteration when
	// Skipped.
	Record IterationRecord
	// U is the proposed point in the unit cube (the checkpoint entry's).
	U []float64
	// Skipped marks a failed evaluation excluded from the trace.
	Skipped bool
	// Err is the profiling error message for skipped iterations.
	Err string
	// Replayed marks an iteration reconstructed from a checkpoint.
	Replayed bool
	// CacheHit marks an evaluation served from the EvalCache.
	CacheHit bool
	// Retried marks an evaluation that succeeded on its perturbed-seed
	// retry.
	Retried bool
	// SimCycles estimates the simulated cycles this evaluation cost
	// (0 for cache hits and replays).
	SimCycles float64
	// PhaseNS maps evaluation phases ("generate", "profile") to their
	// wall-clock duration in nanoseconds. Populated only when
	// SearchConfig.Telemetry is enabled; nil otherwise (and for cache hits
	// and replays, which run neither phase).
	PhaseNS map[string]int64
}

// TelemetryEvent encodes the iteration as the eval event of the JSONL run
// artifact, which /artifact?follow=1 streams live — the one place the eval
// attribute conventions are written: error/best_error (completed
// evaluations only), 0/1 flags, sim_cycles, per-metric "emd_*" attribution,
// per-phase "phase_*_ns" timings, and the skip reason as the message. EvalEventFromTelemetry below
// is its inverse. Build it only for an enabled recorder or a sink that
// wants it: it allocates.
func (ev EvalEvent) TelemetryEvent() telemetry.Event {
	attrs := make(map[string]float64, 4+len(ev.Record.Components)+len(ev.PhaseNS))
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
	for ph, ns := range ev.PhaseNS {
		attrs[telemetry.PhaseNSPrefix+ph+"_ns"] = float64(ns)
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
// truncated. Record.Diagnostics is not part of the eval event (the snapshot
// is the preceding search.diagnostics event, see DiagnosticsEvent) and stays
// nil.
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
		} else if name, ok := strings.CutPrefix(k, telemetry.PhaseNSPrefix); ok && strings.HasSuffix(name, "_ns") {
			if ev.PhaseNS == nil {
				ev.PhaseNS = make(map[string]int64)
			}
			ev.PhaseNS[strings.TrimSuffix(name, "_ns")] = int64(v)
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
	// be nil if the best iteration was replayed from a checkpoint and its
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
	// Checkpoint is the final resumable state of the search.
	Checkpoint Checkpoint
}

// Search runs the optimization loop: propose parameters, generate the
// dataset, run and profile the benchmark, score it against the objective,
// and feed the error back to the optimizer (Fig. 5's loop).
func Search(cfg SearchConfig) (*Result, error) {
	return SearchContext(context.Background(), cfg)
}

// evalResult is the outcome of evaluating one candidate.
type evalResult struct {
	prof     *profile.Profile
	err      error
	e        float64
	x        []float64
	comps    map[string]float64
	cacheHit bool
	retried  bool
	replayed bool
	skipped  bool
	cycles   float64
	phases   map[string]int64
}

// evalTimings accumulates one evaluation's phase durations (including a
// retry's second attempt). It is allocated only when telemetry is enabled.
type evalTimings struct {
	generateNS int64
	profileNS  int64
}

// toMap renders the timings for EvalEvent.PhaseNS; nil-safe.
func (t *evalTimings) toMap() map[string]int64 {
	if t == nil {
		return nil
	}
	return map[string]int64{
		telemetry.PhaseGenerate: t.generateNS,
		telemetry.PhaseProfile:  t.profileNS,
	}
}

// SearchContext is Search with cancellation: the context is checked between
// batches, before each candidate evaluation, and between profiling phases,
// so a cancel or deadline stops the search within roughly one batch. On
// cancellation it returns the partial Result (including its checkpoint,
// from which the search can later resume) alongside ctx's error.
func SearchContext(ctx context.Context, cfg SearchConfig) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	optimizer := cfg.Optimizer
	if optimizer == nil {
		optimizer = opt.NewBayesOpt(cfg.Generator.Space, opt.BayesOptConfig{Seed: cfg.Seed})
	}
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

	var replay []CheckpointEntry
	if cfg.Resume != nil {
		replay = cfg.Resume.Entries
	}

	res := &Result{BestError: 0}
	best := -1
	bestRetried := false
	record := func(it int, x []float64, prof *profile.Profile, e float64, retried bool, comps map[string]float64) {
		res.Evaluations++
		if best < 0 || e < res.BestError {
			best = it
			bestRetried = retried
			res.BestError = e
			res.BestParams = x
			res.BestProfile = prof
		}
		res.Trace = append(res.Trace, IterationRecord{
			Iteration:  it,
			Params:     x,
			Error:      e,
			BestError:  res.BestError,
			Components: comps,
		})
	}

	// profileAt measures (or recalls) the candidate x under one seed,
	// timing the generate and profile phases into tm when telemetry is on.
	profileAt := func(it int, x []float64, seed uint64, tm *evalTimings) (prof *profile.Profile, hit bool, err error) {
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
			p, err = cfg.Evaluator.Evaluate(ctx, x, seed)
			profDur := profSpan.End(nil)
			if tm != nil {
				tm.profileNS += profDur.Nanoseconds()
			}
		} else {
			genSpan := rec.StartSpan(telemetry.PhaseGenerate, it)
			bench := cfg.Generator.Benchmark(x)
			genDur := genSpan.End(nil)
			profSpan := rec.StartSpan(telemetry.PhaseProfile, it)
			p, err = profiler.ProfileContext(ctx, bench, seed)
			profDur := profSpan.End(nil)
			if tm != nil {
				tm.generateNS += genDur.Nanoseconds()
				tm.profileNS += profDur.Nanoseconds()
			}
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
		if err := ctx.Err(); err != nil {
			return evalResult{err: err}
		}
		x := space.Denormalize(u)
		var tm *evalTimings
		if rec.Enabled() {
			tm = new(evalTimings)
		}
		prof, hit, err := profileAt(it, x, iterSeed(cfg.Seed, it, false), tm)
		retried := false
		if err != nil && cfg.OnEvalError == EvalRetrySkip && ctx.Err() == nil {
			retried = true
			prof, hit, err = profileAt(it, x, iterSeed(cfg.Seed, it, true), tm)
		}
		if err != nil {
			if cfg.OnEvalError == EvalRetrySkip && ctx.Err() == nil {
				return evalResult{skipped: true, err: err, x: x, retried: retried, phases: tm.toMap()}
			}
			return evalResult{err: err}
		}
		var e float64
		var comps map[string]float64
		if ao, ok := cfg.Objective.(AttributedObjective); ok {
			e, comps = ao.EvaluateAttributed(prof)
		} else {
			e = cfg.Objective.Evaluate(prof)
		}
		r := evalResult{prof: prof, e: e, x: x, comps: comps, cacheHit: hit, retried: retried, phases: tm.toMap()}
		if !hit {
			r.cycles = profiler.Cycles(len(prof.Curve))
		}
		return r
	}

	for it := 0; it < cfg.Iterations; {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		k := parallel
		if rem := cfg.Iterations - it; k > rem {
			k = rem
		}
		proposeSpan := rec.StartSpan(telemetry.PhasePropose, it)
		batch := opt.FallbackBatch(optimizer, space, k, batchRNG)
		// Drain the search-health snapshot unconditionally: it rides on a
		// trace record whether or not telemetry is on (it is deterministic
		// and read-only, so both runs carry bit-equal values), and leaving
		// it undrained would smear one batch's snapshot into the next.
		var diag *opt.Diagnostics
		if dr, ok := optimizer.(opt.DiagnosticsReporter); ok {
			if d, ok := dr.TakeDiagnostics(); ok {
				diag = &d
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
		results := make([]evalResult, len(batch))
		var wg sync.WaitGroup
		for i, u := range batch {
			gi := it + i
			if gi < len(replay) && sameUnitPoint(replay[gi].U, u) {
				ent := replay[gi]
				results[i] = evalResult{
					replayed: true,
					skipped:  ent.Skipped,
					retried:  ent.Retried,
					e:        ent.Y,
					x:        space.Denormalize(u),
					comps:    ent.Components,
					err:      replayErr(ent),
				}
				continue
			}
			if gi < len(replay) {
				// The checkpoint diverged from the live proposal stream
				// (e.g. a different binary wrote it). Stop replaying and
				// evaluate the rest live.
				replay = replay[:gi]
			}
			wg.Add(1)
			go func(i, gi int, u []float64) {
				defer wg.Done()
				results[i] = evalOne(gi, u)
			}(i, gi, u)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return res, err
		}
		// Observe and record in batch order for determinism.
		observeSpan := rec.StartSpan(telemetry.PhaseObserve, it)
		for i, u := range batch {
			r := results[i]
			gi := it + i
			if r.err != nil && !r.skipped {
				return res, fmt.Errorf("core: profiling iteration %d: %w", gi, r.err)
			}
			ent := CheckpointEntry{
				Iteration:  gi,
				U:          append([]float64(nil), u...),
				Y:          r.e,
				Skipped:    r.skipped,
				Retried:    r.retried,
				Components: r.comps,
			}
			ev := EvalEvent{
				U:         ent.U,
				Skipped:   r.skipped,
				Replayed:  r.replayed,
				CacheHit:  r.cacheHit,
				Retried:   r.retried,
				SimCycles: r.cycles,
				PhaseNS:   r.phases,
			}
			if r.skipped {
				res.Skipped++
				ent.Err = r.err.Error()
				ev.Err = ent.Err
				ev.Record = IterationRecord{Iteration: gi}
			} else {
				optimizer.Observe(u, r.e)
				record(gi, r.x, r.prof, r.e, r.retried, r.comps)
				if diag != nil {
					// The batch's snapshot rides on its first recorded
					// iteration (the proposal the diagnosed fit chose).
					res.Trace[len(res.Trace)-1].Diagnostics = diag
					diag = nil
				}
				if r.cacheHit {
					res.CacheHits++
				}
				res.SimulatedCycles += r.cycles
				ev.Record = res.Trace[len(res.Trace)-1]
			}
			res.Checkpoint.Entries = append(res.Checkpoint.Entries, ent)
			if rec.Enabled() {
				if dev, ok := ev.DiagnosticsEvent(); ok {
					rec.Emit(dev)
				}
				rec.Emit(ev.TelemetryEvent())
			}
			if cfg.OnEval != nil {
				cfg.OnEval(ev)
			}
		}
		observeSpan.End(nil)
		it += len(batch)
	}

	// A best iteration replayed from a checkpoint carries no profile;
	// recover it — free when the evaluation cache still holds it, one
	// extra profiling run otherwise.
	if res.BestProfile == nil && best >= 0 && ctx.Err() == nil {
		if prof, _, err := profileAt(best, res.BestParams, iterSeed(cfg.Seed, best, bestRetried), nil); err == nil {
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
// of a search configured with seed. It is the content-address ingredient a
// caller needs to look a past evaluation up in an EvalCache (together with
// EvalKey) without re-running the search — e.g. to recover the best
// candidate's profile from a checkpoint after a restart.
func IterationSeed(seed uint64, it int, retry bool) uint64 {
	return iterSeed(seed, it, retry)
}

// iterSeed derives the profiling seed for one iteration; the retry stream
// is disjoint so a flaky measurement is re-attempted under different noise.
func iterSeed(seed uint64, it int, retry bool) uint64 {
	if retry {
		return stats.HashSeed(seed, fmt.Sprintf("retry-%d", it))
	}
	return stats.HashSeed(seed, fmt.Sprintf("iter-%d", it))
}

// replayErr reconstructs the recorded error of a skipped checkpoint entry.
func replayErr(ent CheckpointEntry) error {
	if !ent.Skipped {
		return nil
	}
	return fmt.Errorf("%s", ent.Err)
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
