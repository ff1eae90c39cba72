package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"datamime/internal/opt"
	"datamime/internal/profile"
)

// mapCache is a minimal EvalCache for tests.
type mapCache struct {
	mu   sync.Mutex
	m    map[string]*profile.Profile
	hits int
}

func newMapCache() *mapCache { return &mapCache{m: make(map[string]*profile.Profile)} }

func (c *mapCache) Get(key string) (*profile.Profile, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.m[key]
	if ok {
		c.hits++
	}
	return p, ok
}

func (c *mapCache) Put(key string, p *profile.Profile) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = p
}

func metricSearchConfig(iterations, parallel int, seed uint64) SearchConfig {
	pr := fastProfiler()
	pr.SkipCurves = true
	return SearchConfig{
		Generator:  smallKVGenerator(),
		Objective:  MetricObjective{Metric: profile.MetricCPUUtil, Value: 0.15},
		Profiler:   pr,
		Iterations: iterations,
		Parallel:   parallel,
		Seed:       seed,
	}
}

// TestParallelTraceMatchesSerial: with an optimizer whose batch proposals
// are its serial proposal stream (random search; BayesOpt inside its
// Latin-hypercube phase), Parallel: 4 must produce a Trace identical to
// Parallel: 1 — batching changes wall-clock, not results. Run under -race
// this also exercises the batch goroutines.
func TestParallelTraceMatchesSerial(t *testing.T) {
	run := func(parallel int, optimizer func() opt.Optimizer, iterations int) *Result {
		cfg := metricSearchConfig(iterations, parallel, 77)
		if optimizer != nil {
			cfg.Optimizer = optimizer()
		}
		res, err := Search(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	gen := smallKVGenerator()

	// Random search: batch proposals are sequential draws at any budget.
	serial := run(1, func() opt.Optimizer { return opt.NewRandomSearch(gen.Space, 7) }, 13)
	par := run(4, func() opt.Optimizer { return opt.NewRandomSearch(gen.Space, 7) }, 13)
	if !reflect.DeepEqual(serial.Trace, par.Trace) {
		t.Fatalf("random-search traces diverged:\nserial %v\nparallel %v", serial.Trace, par.Trace)
	}

	// Default BayesOpt: its initial design (6 points for this 3-dim space)
	// is dealt out identically in batches and serially.
	serial = run(1, nil, 6)
	par = run(4, nil, 6)
	if !reflect.DeepEqual(serial.Trace, par.Trace) {
		t.Fatalf("BayesOpt init-design traces diverged:\nserial %v\nparallel %v", serial.Trace, par.Trace)
	}
}

// TestCheckpointResumeBitForBit: a search resumed from a mid-run checkpoint
// must match an uninterrupted run exactly — same trace, same best, same
// final checkpoint — because replaying the (u, y) history reconstructs the
// optimizer and RNG state deterministically.
func TestCheckpointResumeBitForBit(t *testing.T) {
	cache := newMapCache()

	full := metricSearchConfig(14, 2, 55)
	full.Cache = cache
	ref, err := Search(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Checkpoint.Entries) != 14 {
		t.Fatalf("checkpoint has %d entries, want 14", len(ref.Checkpoint.Entries))
	}

	// Resume from the 4th batch boundary (8 iterations done).
	prefix := Checkpoint{Entries: ref.Checkpoint.Entries[:8]}
	resumed := metricSearchConfig(14, 2, 55)
	resumed.Cache = cache
	resumed.Resume = &prefix
	res, err := SearchContext(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(ref.Trace, res.Trace) {
		t.Fatalf("resumed trace diverged:\nref     %v\nresumed %v", ref.Trace, res.Trace)
	}
	if ref.BestError != res.BestError || !reflect.DeepEqual(ref.BestParams, res.BestParams) {
		t.Fatalf("resumed best diverged: %g %v vs %g %v",
			ref.BestError, ref.BestParams, res.BestError, res.BestParams)
	}
	if !reflect.DeepEqual(ref.Checkpoint, res.Checkpoint) {
		t.Fatal("resumed final checkpoint diverged")
	}
	if res.Evaluations != 14 {
		t.Fatalf("resumed Evaluations = %d, want 14", res.Evaluations)
	}
	// The replayed prefix's profiles live in the cache, so even a best
	// found before the checkpoint has its profile.
	if res.BestProfile == nil {
		t.Fatal("resumed search lost the best profile")
	}
}

// TestSearchCacheSkipsResimulation: a second identical search served from a
// shared cache performs zero fresh simulation and returns identical results.
func TestSearchCacheSkipsResimulation(t *testing.T) {
	cache := newMapCache()
	run := func() *Result {
		cfg := metricSearchConfig(8, 2, 31)
		cfg.Cache = cache
		res, err := Search(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	if first.CacheHits != 0 {
		t.Fatalf("first run had %d cache hits", first.CacheHits)
	}
	if first.SimulatedCycles <= 0 {
		t.Fatal("first run recorded no simulated cycles")
	}
	second := run()
	if second.CacheHits != second.Evaluations {
		t.Fatalf("second run: %d hits for %d evaluations", second.CacheHits, second.Evaluations)
	}
	if second.SimulatedCycles != 0 {
		t.Fatalf("cached run simulated %g cycles", second.SimulatedCycles)
	}
	if !reflect.DeepEqual(first.Trace, second.Trace) {
		t.Fatal("cached run diverged from fresh run")
	}
}

// TestSearchContextCancel: canceling mid-run stops the search within one
// batch and returns the context error plus the partial result.
func TestSearchContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := metricSearchConfig(40, 2, 12)
	events := 0
	cfg.OnEval = func(EvalEvent) {
		events++
		if events == 4 {
			cancel()
		}
	}
	res, err := SearchContext(ctx, cfg)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Trace) == 0 || len(res.Trace) > 6 {
		t.Fatalf("partial result trace = %v", res)
	}
	// The partial checkpoint resumes to the same outcome as an
	// uninterrupted run.
	resumed := metricSearchConfig(40, 2, 12)
	resumed.Resume = &res.Checkpoint
	ref, err := Search(metricSearchConfig(40, 2, 12))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Search(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Trace, got.Trace) {
		t.Fatal("resume-after-cancel diverged from uninterrupted run")
	}

	// An already-canceled context fails fast.
	if _, err := SearchContext(ctx, metricSearchConfig(4, 1, 1)); err != context.Canceled {
		t.Fatalf("pre-canceled context: err = %v", err)
	}
}
