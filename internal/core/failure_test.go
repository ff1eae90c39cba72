package core

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"datamime/internal/datagen"
	"datamime/internal/opt"
	"datamime/internal/profile"
	"datamime/internal/workload"
)

// TestSearchPropagatesProfilingErrors: a generator that emits an invalid
// benchmark must fail the search with a useful error, not panic or hang.
func TestSearchPropagatesProfilingErrors(t *testing.T) {
	gen := datagen.Generator{
		Name:  "broken",
		Space: opt.MustSpace(opt.Param{Name: "x", Lo: 0, Hi: 1}),
		Benchmark: func([]float64) workload.Benchmark {
			return workload.Benchmark{Name: "broken"} // no QPS, no factory
		},
	}
	_, err := Search(SearchConfig{
		Generator:  gen,
		Objective:  MetricObjective{Metric: profile.MetricIPC, Value: 1},
		Profiler:   fastProfiler(),
		Iterations: 3,
		Seed:       1,
	})
	if err == nil {
		t.Fatal("broken generator did not fail the search")
	}
	if !strings.Contains(err.Error(), "iteration") {
		t.Fatalf("error lacks iteration context: %v", err)
	}
}

// TestParallelSearchPropagatesErrors: the same under batch evaluation.
func TestParallelSearchPropagatesErrors(t *testing.T) {
	var calls atomic.Int32
	good := smallKVGenerator()
	gen := datagen.Generator{
		Name:  "flaky",
		Space: good.Space,
		Benchmark: func(x []float64) workload.Benchmark {
			if calls.Add(1) == 3 {
				return workload.Benchmark{Name: "flaky"} // third candidate breaks
			}
			return good.Benchmark(x)
		},
	}
	pr := fastProfiler()
	pr.SkipCurves = true
	_, err := Search(SearchConfig{
		Generator:  gen,
		Objective:  MetricObjective{Metric: profile.MetricIPC, Value: 1},
		Profiler:   pr,
		Iterations: 8,
		Parallel:   4,
		Seed:       2,
	})
	if err == nil {
		t.Fatal("flaky generator did not fail the parallel search")
	}
}

// flakyGenerator wraps smallKVGenerator with a factory that emits a broken
// benchmark on the given factory-call numbers (1-based).
func flakyGenerator(breakOn ...int32) datagen.Generator {
	var calls atomic.Int32
	good := smallKVGenerator()
	return datagen.Generator{
		Name:  "flaky",
		Space: good.Space,
		Benchmark: func(x []float64) workload.Benchmark {
			n := calls.Add(1)
			for _, b := range breakOn {
				if n == b {
					return workload.Benchmark{Name: "flaky"} // no QPS, no factory
				}
			}
			return good.Benchmark(x)
		},
	}
}

// TestRetrySkipRecoversOnRetry: under EvalRetrySkip, a transient failure is
// retried with a perturbed seed; when the retry succeeds, the search loses
// nothing and its eval event records the retry.
func TestRetrySkipRecoversOnRetry(t *testing.T) {
	pr := fastProfiler()
	pr.SkipCurves = true
	res, events := searchEvents(t, SearchConfig{
		Generator:   flakyGenerator(3), // iteration 2's first attempt breaks; its retry (call 4) works
		Objective:   MetricObjective{Metric: profile.MetricIPC, Value: 1},
		Profiler:    pr,
		Iterations:  8,
		Seed:        2,
		OnEvalError: EvalRetrySkip,
	})
	if res.Evaluations != 8 || res.Skipped != 0 || len(res.Trace) != 8 {
		t.Fatalf("evals %d, skipped %d, trace %d; want 8, 0, 8",
			res.Evaluations, res.Skipped, len(res.Trace))
	}
	if !events[2].Retried {
		t.Fatal("the eval event did not record the retry")
	}
}

// TestRetrySkipRecordsPersistentFailure: when the retry fails too, the
// iteration is skipped and recorded, and the search degrades gracefully
// instead of aborting.
func TestRetrySkipRecordsPersistentFailure(t *testing.T) {
	pr := fastProfiler()
	pr.SkipCurves = true
	res, events := searchEvents(t, SearchConfig{
		Generator:   flakyGenerator(3, 4), // iteration 2 breaks on both attempts
		Objective:   MetricObjective{Metric: profile.MetricIPC, Value: 1},
		Profiler:    pr,
		Iterations:  8,
		Seed:        2,
		OnEvalError: EvalRetrySkip,
	})
	if res.Evaluations != 7 || res.Skipped != 1 || len(res.Trace) != 7 {
		t.Fatalf("evals %d, skipped %d, trace %d; want 7, 1, 7",
			res.Evaluations, res.Skipped, len(res.Trace))
	}
	if ev := events[2]; !ev.Skipped || !ev.Retried || ev.Err == "" {
		t.Fatalf("skip not recorded in the eval event: %+v", ev)
	}
	// The trace skips iteration 2 but keeps global numbering.
	if res.Trace[2].Iteration != 3 {
		t.Fatalf("trace[2].Iteration = %d, want 3", res.Trace[2].Iteration)
	}
	if res.BestProfile == nil {
		t.Fatal("search with a skip lost its best profile")
	}
}

// TestRetrySkipAllFailures: even a generator that never works finishes the
// budget with everything skipped rather than erroring out.
func TestRetrySkipAllFailures(t *testing.T) {
	gen := datagen.Generator{
		Name:  "broken",
		Space: opt.MustSpace(opt.Param{Name: "x", Lo: 0, Hi: 1}),
		Benchmark: func([]float64) workload.Benchmark {
			return workload.Benchmark{Name: "broken"}
		},
	}
	res, err := Search(SearchConfig{
		Generator:   gen,
		Objective:   MetricObjective{Metric: profile.MetricIPC, Value: 1},
		Profiler:    fastProfiler(),
		Iterations:  5,
		Parallel:    2,
		Seed:        4,
		OnEvalError: EvalRetrySkip,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 0 || res.Skipped != 5 || res.BestParams != nil {
		t.Fatalf("evals %d, skipped %d, best %v; want all skipped",
			res.Evaluations, res.Skipped, res.BestParams)
	}
}

// TestBayesOptSurvivesDegenerateObservations: constant and non-finite
// objective values must not wedge the optimizer — it falls back to random
// proposals when the surrogate cannot fit.
func TestBayesOptSurvivesDegenerateObservations(t *testing.T) {
	space := opt.MustSpace(opt.Param{Name: "a", Lo: 0, Hi: 1})
	bo := opt.NewBayesOpt(space, opt.BayesOptConfig{Seed: 3, InitPoints: 3})
	// All-identical observations: zero variance.
	for i := 0; i < 6; i++ {
		x := bo.Next()
		bo.Observe(x, 1.0)
	}
	x := bo.Next()
	if len(x) != 1 || x[0] < 0 || x[0] > 1 {
		t.Fatalf("proposal after constant observations: %v", x)
	}
	// A NaN observation must not poison future proposals.
	bo.Observe(x, math.NaN())
	y := bo.Next()
	if len(y) != 1 || math.IsNaN(y[0]) || y[0] < 0 || y[0] > 1 {
		t.Fatalf("proposal after NaN observation: %v", y)
	}
}

// TestProfilerBoundsRunawayServers: a server so slow that windows barely
// close must still return within the request bound.
func TestProfilerBoundsRunawayServers(t *testing.T) {
	gen := smallKVGenerator()
	b := gen.Benchmark([]float64{15_000, 0.9, 100}) // light load
	pr := fastProfiler()
	pr.SkipCurves = true
	pr.WindowCycles = 1e10 // absurd window: would take forever to close
	pr.MaxRequestsPerRun = 2_000
	p, err := pr.Profile(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	// No windows close, so distributions are empty — degenerate but sane.
	if len(p.Samples[profile.MetricICache]) != 0 {
		t.Fatal("expected no closed windows")
	}
	// The error model tolerates empty candidate distributions.
	target, err := fastProfiler().Profile(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := NewErrorModel().Distance(target, p)
	if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
		t.Fatalf("distance against empty profile: %g", d)
	}
}
