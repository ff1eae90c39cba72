package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"datamime/internal/opt"
	"datamime/internal/profile"
	"datamime/internal/stats"
)

// lockstep hides an optimizer's opt.Planner, so the search proposes each
// batch only once every earlier iteration has been observed: the lockstep
// batch loop. It forwards diagnostics and timings, so the snapshots ride on
// the same records as without it.
type lockstep struct{ opt.BatchOptimizer }

func (l lockstep) TakeDiagnostics() (opt.Diagnostics, bool) {
	if dr, ok := l.BatchOptimizer.(opt.DiagnosticsReporter); ok {
		return dr.TakeDiagnostics()
	}
	return opt.Diagnostics{}, false
}

func (l lockstep) TakeTimings() (opt.Timings, bool) {
	if tr, ok := l.BatchOptimizer.(opt.TimingReporter); ok {
		return tr.TakeTimings()
	}
	return opt.Timings{}, false
}

// synthEvaluator scores candidates without simulating them: the profile is a
// function of the point and the profiling seed, and an evaluation sleeps up
// to 3 ms, chosen by its iteration, so evaluations finish out of order. It
// maps each profiling seed back to its iteration and counts evaluations in
// flight. gate, when set, runs first; a non-nil error fails the evaluation.
type synthEvaluator struct {
	iters map[uint64]int

	mu          sync.Mutex
	inflight    map[int]bool
	maxInflight int
	// overlap records a start while an iteration of another batch of width
	// batch was in flight (0 disables the check).
	batch   int
	overlap string
	gate    func(ctx context.Context, it int) error
}

func newSynthEvaluator(seed uint64, iterations int) *synthEvaluator {
	e := &synthEvaluator{iters: make(map[uint64]int), inflight: make(map[int]bool)}
	for it := 0; it < iterations; it++ {
		e.iters[IterationSeed(seed, it, false)] = it
		e.iters[IterationSeed(seed, it, true)] = it
	}
	return e
}

func (e *synthEvaluator) Evaluate(ctx context.Context, x []float64, seed uint64) (*profile.Profile, error) {
	it := e.iters[seed]
	e.mu.Lock()
	for j := range e.inflight {
		if e.batch > 0 && j/e.batch != it/e.batch && e.overlap == "" {
			e.overlap = fmt.Sprintf("iteration %d started while iteration %d was in flight", it, j)
		}
	}
	e.inflight[it] = true
	e.maxInflight = max(e.maxInflight, len(e.inflight))
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.inflight, it)
		e.mu.Unlock()
	}()
	if e.gate != nil {
		if err := e.gate(ctx, it); err != nil {
			return nil, err
		}
	}
	time.Sleep(time.Duration(it%4) * time.Millisecond)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	p := &profile.Profile{Benchmark: "synth", Machine: "broadwell", Samples: make(map[profile.MetricID][]float64)}
	for _, id := range profile.ScalarMetrics {
		s := make([]float64, 8)
		for i := range s {
			s[i] = 0.3*x[1] + math.Log(x[0])/100 + 0.01*rng.NormFloat64()
		}
		p.Samples[id] = s
	}
	return p, nil
}

// inFlight is how many evaluations are running now.
func (e *synthEvaluator) inFlight() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.inflight)
}

// synthSearchConfig is a search over smallKVGenerator's space, scored
// through ev, by a BayesOpt with a 12-point initial design.
func synthSearchConfig(iterations, parallel int, seed uint64, ev Evaluator) SearchConfig {
	gen := smallKVGenerator()
	return SearchConfig{
		Generator:  gen,
		Objective:  MetricObjective{Metric: profile.MetricCPUUtil, Value: 0.15},
		Profiler:   fastProfiler(),
		Iterations: iterations,
		Parallel:   parallel,
		Seed:       seed,
		Optimizer:  opt.NewBayesOpt(gen.Space, opt.BayesOptConfig{Seed: seed, InitPoints: 12}),
		Evaluator:  ev,
	}
}

// TestDesignBatchesOverlap: at Parallel: 2, an initial-design point starts as
// soon as a slot frees, not when its batch's slower point finishes.
// Iteration 0 waits for iteration 2 to start, which a lockstep loop only
// does after iteration 0 has finished; the wait times out then and fails the
// search instead of hanging it. Evaluations in flight never exceed Parallel,
// and an optimizer that hides opt.Planner never has two batches in flight.
func TestDesignBatchesOverlap(t *testing.T) {
	const seed, iterations, parallel = 5, 16, 2
	for _, tc := range []struct {
		name   string
		hidden bool
	}{{"planned", false}, {"hidden", true}} {
		t.Run(tc.name, func(t *testing.T) {
			ev := newSynthEvaluator(seed, iterations)
			started2 := make(chan struct{})
			if tc.hidden {
				ev.batch = parallel
			} else {
				ev.gate = func(ctx context.Context, it int) error {
					switch it {
					case 2:
						close(started2)
					case 0:
						select {
						case <-started2:
						case <-time.After(10 * time.Second):
							return errors.New("iteration 2 did not start while iteration 0 ran")
						}
					}
					return nil
				}
			}
			cfg := synthSearchConfig(iterations, parallel, seed, ev)
			if tc.hidden {
				cfg.Optimizer = lockstep{cfg.Optimizer.(opt.BatchOptimizer)}
			}
			res, err := Search(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Evaluations != iterations {
				t.Fatalf("%d evaluations, want %d", res.Evaluations, iterations)
			}
			if ev.maxInflight > parallel {
				t.Fatalf("%d evaluations in flight at once, Parallel is %d", ev.maxInflight, parallel)
			}
			if ev.overlap != "" {
				t.Fatalf("two batches in flight without a planner: %s", ev.overlap)
			}
		})
	}
}

// scheduledRun is what a search hands back: its result, error and the
// events its OnEval saw.
type scheduledRun struct {
	res    *Result
	err    error
	events []EvalEvent
}

func runScheduled(ctx context.Context, cfg SearchConfig) scheduledRun {
	var r scheduledRun
	cfg.OnEval = func(ev EvalEvent) { r.events = append(r.events, ev) }
	r.res, r.err = SearchContext(ctx, cfg)
	return r
}

// TestPlanningMovesNothing: a search whose optimizer exposes opt.Planner
// equals the same search with the planner hidden (the lockstep loop) in its
// Result, Trace and OnEval events — over Parallel 2, 4 and 5 (a batch
// mixing the last two design points with three proposals at iteration 10),
// BayesOpt and random search, and a skipped design iteration.
func TestPlanningMovesNothing(t *testing.T) {
	const seed, iterations = 9, 16
	for _, tc := range []struct {
		name     string
		parallel int
		random   bool
		skip     int // a design iteration whose both attempts fail; -1 for none
	}{
		{"bayesopt/2", 2, false, -1},
		{"bayesopt/4", 4, false, -1},
		{"bayesopt/5", 5, false, -1},
		{"random/2", 2, true, -1},
		{"random/4", 4, true, -1},
		{"random/5", 5, true, -1},
		{"bayesopt/4/skip", 4, false, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(hide bool) scheduledRun {
				ev := newSynthEvaluator(seed, iterations)
				if tc.skip >= 0 {
					ev.gate = func(_ context.Context, it int) error {
						if it == tc.skip {
							return errors.New("injected evaluation failure")
						}
						return nil
					}
				}
				cfg := synthSearchConfig(iterations, tc.parallel, seed, ev)
				if tc.random {
					cfg.Optimizer = opt.NewRandomSearch(cfg.Generator.Space, seed)
				}
				if tc.skip >= 0 {
					cfg.OnEvalError = EvalRetrySkip
				}
				if hide {
					cfg.Optimizer = lockstep{cfg.Optimizer.(opt.BatchOptimizer)}
				}
				r := runScheduled(context.Background(), cfg)
				if r.err != nil {
					t.Fatal(r.err)
				}
				return r
			}
			planned, hidden := run(false), run(true)
			if !reflect.DeepEqual(planned.res, hidden.res) {
				t.Fatalf("results differ:\nplanned %+v\nhidden  %+v", planned.res, hidden.res)
			}
			if !reflect.DeepEqual(planned.events, hidden.events) {
				t.Fatalf("events differ:\nplanned %+v\nhidden  %+v", planned.events, hidden.events)
			}
			if tc.skip >= 0 && (planned.res.Skipped != 1 || !planned.events[tc.skip].Skipped) {
				t.Fatalf("iteration %d was not the one skip (skipped %d)", tc.skip, planned.res.Skipped)
			}
			if !tc.random && !hasDiagnostics(planned.res.Trace) {
				t.Fatal("no surrogate-backed batch carried a snapshot")
			}
		})
	}
}

func hasDiagnostics(trace []IterationRecord) bool {
	for _, r := range trace {
		if r.Diagnostics != nil {
			return true
		}
	}
	return false
}

// resumesToUninterrupted checks that a search over synthSearchConfig
// resumed from events ends as the uninterrupted run does, in its trace, best
// and events.
func resumesToUninterrupted(t *testing.T, iterations, parallel int, seed uint64, events []EvalEvent) {
	t.Helper()
	ref := runScheduled(context.Background(), synthSearchConfig(iterations, parallel, seed, newSynthEvaluator(seed, iterations)))
	cfg := synthSearchConfig(iterations, parallel, seed, newSynthEvaluator(seed, iterations))
	cfg.Resume = events
	got := runScheduled(context.Background(), cfg)
	if ref.err != nil || got.err != nil {
		t.Fatal(ref.err, got.err)
	}
	if !reflect.DeepEqual(ref.res.Trace, got.res.Trace) || ref.res.BestError != got.res.BestError {
		t.Fatal("the resumed run diverged from the uninterrupted one")
	}
	if !reflect.DeepEqual(replayFields(ref.events), replayFields(got.events)) {
		t.Fatal("the resumed run's events diverged from the uninterrupted one's")
	}
}

// TestFailFastMidDesign: a design iteration that fails under EvalFailFast
// ends the search with that iteration's error once every iteration before it
// has been observed, even when a later one failed first; no evaluation is
// left running, and the events OnEval saw resume the search to the
// uninterrupted run bit for bit.
func TestFailFastMidDesign(t *testing.T) {
	const seed, iterations = 3, 16
	for _, parallel := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			ev := newSynthEvaluator(seed, iterations)
			// Iteration 5 fails late, iteration 7 at once: the error names 5.
			ev.gate = func(_ context.Context, it int) error {
				switch it {
				case 5:
					time.Sleep(5 * time.Millisecond)
					return errors.New("injected failure at 5")
				case 7:
					return errors.New("injected failure at 7")
				}
				return nil
			}
			r := runScheduled(context.Background(), synthSearchConfig(iterations, parallel, seed, ev))
			if r.err == nil || r.err.Error() != "core: profiling iteration 5: injected failure at 5" {
				t.Fatalf("err = %v, want iteration 5's failure", r.err)
			}
			if n := ev.inFlight(); n != 0 {
				t.Fatalf("%d evaluations still in flight after SearchContext returned", n)
			}
			if len(r.events) != 5 || len(r.res.Trace) != 5 {
				t.Fatalf("trace %d, events %d; want iterations 0-4 observed", len(r.res.Trace), len(r.events))
			}
			resumesToUninterrupted(t, iterations, parallel, seed, r.events)
		})
	}
}
