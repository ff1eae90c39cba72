package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"datamime/internal/opt"
	"datamime/internal/profile"
	"datamime/internal/telemetry"
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

// searchEvents runs a search and returns its result with the events its
// OnEval saw.
func searchEvents(t *testing.T, cfg SearchConfig) (*Result, []EvalEvent) {
	t.Helper()
	var evs []EvalEvent
	cfg.OnEval = func(ev EvalEvent) { evs = append(evs, ev) }
	res, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, evs
}

// replayFields keeps of each event what a replay reads back from it (with
// its trace record), dropping how the iteration was served: a resumed run
// agrees with an uninterrupted one on these.
func replayFields(evs []EvalEvent) []EvalEvent {
	out := make([]EvalEvent, len(evs))
	for i, ev := range evs {
		out[i] = EvalEvent{Record: ev.Record, U: ev.U, Skipped: ev.Skipped, Err: ev.Err, Retried: ev.Retried}
	}
	return out
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

// TestCheckpointResumeBitForBit: a search resumed from the events of a run's
// first iterations must match an uninterrupted run exactly — same trace, same
// best, same events — because replaying the (u, y) history reconstructs the
// optimizer and RNG state deterministically.
func TestCheckpointResumeBitForBit(t *testing.T) {
	cache := newMapCache()

	full := metricSearchConfig(14, 2, 55)
	full.Cache = cache
	ref, refEvents := searchEvents(t, full)
	if len(refEvents) != 14 {
		t.Fatalf("the search emitted %d events, want 14", len(refEvents))
	}

	// Resume from the 4th batch boundary (8 iterations done).
	resumed := metricSearchConfig(14, 2, 55)
	resumed.Cache = cache
	resumed.Resume = refEvents[:8]
	res, events := searchEvents(t, resumed)

	if !reflect.DeepEqual(ref.Trace, res.Trace) {
		t.Fatalf("resumed trace diverged:\nref     %v\nresumed %v", ref.Trace, res.Trace)
	}
	if ref.BestError != res.BestError || !reflect.DeepEqual(ref.BestParams, res.BestParams) {
		t.Fatalf("resumed best diverged: %g %v vs %g %v",
			ref.BestError, ref.BestParams, res.BestError, res.BestParams)
	}
	if !reflect.DeepEqual(replayFields(refEvents), replayFields(events)) {
		t.Fatal("resumed events diverged")
	}
	for i, ev := range events {
		if ev.Replayed != (i < 8) {
			t.Fatalf("event %d: Replayed %v, want %v", i, ev.Replayed, i < 8)
		}
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
// batch and returns the context error itself plus the partial result.
func TestSearchContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := metricSearchConfig(40, 2, 12)
	var events []EvalEvent
	cfg.OnEval = func(ev EvalEvent) {
		events = append(events, ev)
		if len(events) == 4 {
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
	// The events OnEval saw resume to the same outcome as an uninterrupted
	// run.
	resumed := metricSearchConfig(40, 2, 12)
	resumed.Resume = events
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

	// A cancel while design points are in flight: nothing is observed after
	// it, and no evaluation outlives the search.
	const seed, iterations = 3, 16
	for _, parallel := range []int{1, 2} {
		t.Run(fmt.Sprintf("mid-design/parallel=%d", parallel), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ev := newSynthEvaluator(seed, iterations)
			cfg := synthSearchConfig(iterations, parallel, seed, ev)
			var events []EvalEvent
			cfg.OnEval = func(e EvalEvent) {
				if events = append(events, e); len(events) == 3 {
					cancel()
				}
			}
			res, err := SearchContext(ctx, cfg)
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled itself", err)
			}
			if n := ev.inFlight(); n != 0 {
				t.Fatalf("%d evaluations still in flight after SearchContext returned", n)
			}
			if len(res.Trace) != 3 || len(events) != 3 {
				t.Fatalf("trace %d, events %d; want the 3 iterations observed before the cancel", len(res.Trace), len(events))
			}
			resumesToUninterrupted(t, iterations, parallel, seed, events)
		})
	}
}

// TestResumeDivergesToLive: a Parallel: 4 search resumed from the events of
// a Parallel: 1 run of the same seed replays while the two runs propose the
// same points (the initial design) and evaluates live from the first batch
// proposal that differs. It ends where a fresh Parallel: 4 run does.
// The serial run's artifact, cut at an eval without its point, resumes from
// the events before that eval only.
func TestResumeDivergesToLive(t *testing.T) {
	const iterations = 12
	var artifact bytes.Buffer
	serialCfg := metricSearchConfig(iterations, 1, 21)
	serialCfg.Telemetry = telemetry.New(telemetry.Options{OnEvent: telemetry.NewJSONLSink(&artifact)})
	_, serial := searchEvents(t, serialCfg)
	ref, fresh := searchEvents(t, metricSearchConfig(iterations, 4, 21))
	matching := 0
	for matching < iterations && sameUnitPoint(serial[matching].U, fresh[matching].U) {
		matching++
	}
	if matching < 6 || matching >= iterations-2 {
		t.Fatalf("the serial and batched runs share %d leading points; want the 6-point initial design, then a divergence before iteration %d", matching, iterations-2)
	}

	logged := scanArtifact(t, &artifact)
	evals := 0
	for i := range logged {
		if logged[i].Type != telemetry.TypeEval {
			continue
		}
		if evals++; evals == iterations-1 {
			logged[i].U = nil
		}
	}
	resume := resumeFrom(t, logged)
	if len(resume) != iterations-2 {
		t.Fatalf("the resume read %d iterations before the eval without u, want %d", len(resume), iterations-2)
	}
	for i, ev := range resume {
		if !reflect.DeepEqual(ev.U, serial[i].U) || ev.Record.Error != serial[i].Record.Error {
			t.Fatalf("resume[%d] = %+v, the serial run's event %+v", i, ev, serial[i])
		}
	}

	cfg := metricSearchConfig(iterations, 4, 21)
	cfg.Resume = resume
	res, events := searchEvents(t, cfg)
	for i, ev := range events {
		if ev.Replayed != (i < matching) {
			t.Fatalf("event %d: Replayed %v, want %v (the runs share %d leading points)", i, ev.Replayed, i < matching, matching)
		}
	}
	if !reflect.DeepEqual(ref.Trace, res.Trace) {
		t.Fatalf("the diverged resume's trace differs from a fresh run's:\nfresh   %v\nresumed %v", ref.Trace, res.Trace)
	}
	if ref.BestError != res.BestError || !reflect.DeepEqual(ref.BestParams, res.BestParams) {
		t.Fatalf("the diverged resume's best %g %v, a fresh run's %g %v", res.BestError, res.BestParams, ref.BestError, ref.BestParams)
	}
}

// scanArtifact reads a JSONL run artifact's events.
func scanArtifact(t *testing.T, r io.Reader) []telemetry.Event {
	t.Helper()
	var events []telemetry.Event
	if _, err := telemetry.ScanJSONL(r, func(ev telemetry.Event) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return events
}

// resumeFrom decodes a recorded search's eval events for SearchConfig.Resume,
// stopping at the first one without a u, which cannot be replayed.
func resumeFrom(t *testing.T, events []telemetry.Event) []EvalEvent {
	t.Helper()
	var resume []EvalEvent
	for _, tev := range events {
		if tev.Type != telemetry.TypeEval {
			continue
		}
		if len(tev.U) == 0 {
			break
		}
		ev, err := EvalEventFromTelemetry(tev)
		if err != nil {
			t.Fatalf("iteration %d: %v", tev.Iter, err)
		}
		resume = append(resume, ev)
	}
	return resume
}
