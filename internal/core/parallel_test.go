package core

import (
	"reflect"
	"testing"

	"datamime/internal/profile"
	"datamime/internal/stats"
)

// randomProfile builds a profile with unsorted random samples, so the
// sorted-target fast path actually has sorting work to skip.
func randomProfile(seed uint64) *profile.Profile {
	rng := stats.NewRNG(seed)
	p := &profile.Profile{
		Benchmark: "random",
		Machine:   "broadwell",
		Samples:   make(map[profile.MetricID][]float64),
	}
	for _, id := range profile.ScalarMetrics {
		s := make([]float64, 40)
		for i := range s {
			s[i] = rng.NormFloat64() * 3
		}
		p.Samples[id] = s
	}
	for w := 1; w <= 6; w++ {
		p.Curve = append(p.Curve, profile.CurvePoint{
			Ways: w, SizeBytes: w << 20, IPC: 0.5 + rng.Float64(), LLCMPKI: 10 * rng.Float64(),
		})
	}
	return p
}

// TestProfileObjectiveSortedCache: NewProfileObjective's precomputed sorted
// targets must be invisible in the results — bit-identical totals and
// per-component attributions versus the literal (uncached) form, under both
// distance statistics and with the optional compression component on.
func TestProfileObjectiveSortedCache(t *testing.T) {
	target := randomProfile(5)
	models := []*ErrorModel{
		NewErrorModel(),
		NewErrorModel().WithDistance(DistKS),
		NewErrorModel().WithWeight(CompCompression, 2),
	}
	for mi, m := range models {
		plain := ProfileObjective{Target: target, Model: m}
		cached := NewProfileObjective(target, m)
		for s := uint64(20); s < 26; s++ {
			cand := randomProfile(s)
			if a, b := plain.Evaluate(cand), cached.Evaluate(cand); a != b {
				t.Fatalf("model %d seed %d: plain %v != cached %v", mi, s, a, b)
			}
			ta, pa := plain.EvaluateAttributed(cand)
			tb, pb := cached.EvaluateAttributed(cand)
			if ta != tb || !reflect.DeepEqual(pa, pb) {
				t.Fatalf("model %d seed %d: attribution diverged", mi, s)
			}
		}
		// Self-distance stays exactly zero through the cached path.
		if d := cached.Evaluate(target); d != 0 {
			t.Fatalf("model %d: cached self-distance %g", mi, d)
		}
	}
}

// TestSearchProfileWorkersIdentical: a search is bit-for-bit identical at
// any ProfileWorkers setting — same trace, same best, same eval events.
func TestSearchProfileWorkersIdentical(t *testing.T) {
	gen := smallKVGenerator()
	hidden := gen.Benchmark([]float64{90_000, 0.8, 400})
	target, err := fastProfiler().Profile(hidden, 321)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (*Result, []EvalEvent) {
		return searchEvents(t, SearchConfig{
			Generator:      gen,
			Objective:      NewProfileObjective(target, NewErrorModel()),
			Profiler:       fastProfiler(),
			Iterations:     6,
			Seed:           13,
			ProfileWorkers: workers,
		})
	}
	serial, serialEvents := run(1)
	parallel, parallelEvents := run(3)
	if !reflect.DeepEqual(serial.Trace, parallel.Trace) {
		t.Fatalf("traces diverged:\nserial:   %+v\nparallel: %+v", serial.Trace, parallel.Trace)
	}
	if serial.BestError != parallel.BestError ||
		!reflect.DeepEqual(serial.BestParams, parallel.BestParams) {
		t.Fatal("best result diverged across ProfileWorkers settings")
	}
	if !reflect.DeepEqual(serial.BestProfile, parallel.BestProfile) {
		t.Fatal("best profile diverged across ProfileWorkers settings")
	}
	if !reflect.DeepEqual(serialEvents, parallelEvents) {
		t.Fatal("eval events diverged across ProfileWorkers settings")
	}
}

// TestSearchRejectsNegativeProfileWorkers pins the validation contract the
// CLI flags rely on.
func TestSearchRejectsNegativeProfileWorkers(t *testing.T) {
	_, err := Search(SearchConfig{
		Generator:      smallKVGenerator(),
		Objective:      MetricObjective{Metric: profile.MetricIPC, Value: 1},
		Profiler:       fastProfiler(),
		Iterations:     1,
		ProfileWorkers: -1,
	})
	if err == nil {
		t.Fatal("negative ProfileWorkers accepted")
	}
}

func TestParallelSearchMatchesBudget(t *testing.T) {
	gen := smallKVGenerator()
	pr := fastProfiler()
	pr.SkipCurves = true
	res, err := Search(SearchConfig{
		Generator:  gen,
		Objective:  MetricObjective{Metric: profile.MetricCPUUtil, Value: 0.15},
		Profiler:   pr,
		Iterations: 13, // deliberately not a multiple of Parallel
		Parallel:   4,
		Seed:       21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 13 || len(res.Trace) != 13 {
		t.Fatalf("parallel search did %d evals, trace %d", res.Evaluations, len(res.Trace))
	}
	// Trace iteration numbers are sequential and best-so-far non-increasing.
	for i, rec := range res.Trace {
		if rec.Iteration != i {
			t.Fatalf("trace[%d].Iteration = %d", i, rec.Iteration)
		}
		if i > 0 && rec.BestError > res.Trace[i-1].BestError {
			t.Fatal("best-so-far increased")
		}
	}
}

func TestParallelSearchDeterministic(t *testing.T) {
	run := func() float64 {
		gen := smallKVGenerator()
		pr := fastProfiler()
		pr.SkipCurves = true
		res, err := Search(SearchConfig{
			Generator:  gen,
			Objective:  MetricObjective{Metric: profile.MetricCPUUtil, Value: 0.1},
			Profiler:   pr,
			Iterations: 8,
			Parallel:   4,
			Seed:       33,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.BestError
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("parallel same-seed searches diverged: %g vs %g", a, b)
	}
}

func TestParallelSearchFindsSameQualityAsSerial(t *testing.T) {
	gen := smallKVGenerator()
	run := func(parallel int) float64 {
		pr := fastProfiler()
		pr.SkipCurves = true
		res, err := Search(SearchConfig{
			Generator:  gen,
			Objective:  MetricObjective{Metric: profile.MetricCPUUtil, Value: 0.12},
			Profiler:   pr,
			Iterations: 16,
			Parallel:   parallel,
			Seed:       44,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.BestError
	}
	serial := run(1)
	par := run(4)
	// Parallel search trades per-step information for wall-clock speed;
	// the final quality must stay in the same ballpark.
	if par > serial*3+0.2 {
		t.Fatalf("parallel quality collapsed: serial %g vs parallel %g", serial, par)
	}
}
