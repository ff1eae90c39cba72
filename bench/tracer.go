package main

import (
	"runtime/metrics"
	"sync"
	"time"

	"datamime/internal/core"
	"datamime/internal/datagen"
	"datamime/internal/opt"
	"datamime/internal/profile"
	"datamime/internal/stats"
	"datamime/internal/trace"
	"datamime/internal/workload"
)

// Span names, one per layer boundary the wrappers can see from outside.
const (
	spanSearch    = "search"
	spanPropose   = "opt.propose"
	spanObserve   = "opt.observe"
	spanCacheGet  = "core.cache_get"
	spanDatagen   = "datagen.benchmark"
	spanSweep     = "profile.sweep"
	spanBuild     = "apps.build"
	spanWarm      = "sim.warm"
	spanRun       = "workload.run"
	spanHandle    = "apps.handle"
	spanObjective = "core.objective"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer was created. An aggregated span (apps.handle) stands for
// Count calls between Start and End whose durations sum to Busy.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Search int    `json:"search"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns,omitempty"`
	Count  int64  `json:"count,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans and counts for the searches it wraps. It sees only
// what crosses core.SearchConfig: every method below is called from the
// search loop or, on the pooled workload, from its evaluation goroutines.
type tracer struct {
	epoch time.Time
	// measureAlloc samples the heap-allocation counter around NewServer; it
	// is only meaningful when one goroutine allocates at a time.
	measureAlloc bool

	mu     sync.Mutex
	spans  []span
	search int // id of the search span in flight
	// cands are the candidates of the search in flight, in generation order.
	cands []*candidate
	// open maps a benchmark name to its candidates whose sweep has not
	// ended, oldest first: the objective wrapper closes them by name.
	open map[string][]*candidate

	// Counts taken at the same boundaries, for the search in flight.
	gpFit, acq       time.Duration
	choleskyRebuilds int
	cacheHits        int
	events, bytes    int64
	buildAlloc       uint64
}

func newTracer(measureAlloc bool) *tracer {
	return &tracer{epoch: time.Now(), measureAlloc: measureAlloc, open: map[string][]*candidate{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add appends a span and returns its id (ids start at 1; parent 0 is none).
func (t *tracer) add(name string, parent int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addLocked(span{Name: name, Parent: parent, Start: start, End: end})
}

func (t *tracer) addLocked(s span) int {
	s.ID = len(t.spans) + 1
	s.Search = t.search
	if s.Name == spanSearch {
		s.Search = s.ID
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens the search span; end closes it and turns the per-candidate
// records into spans. Nothing else of the search is running at either call.
func (t *tracer) begin() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gpFit, t.acq, t.choleskyRebuilds, t.cacheHits = 0, 0, 0, 0
	t.events, t.bytes, t.buildAlloc = 0, 0, 0
	t.search = t.addLocked(span{Name: spanSearch, Start: t.now()})
}

func (t *tracer) end() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[t.search-1].End = t.now()
	for _, c := range t.cands {
		t.addLocked(span{Name: spanDatagen, Parent: t.search, Start: c.genStart, End: c.genEnd})
		if c.sweepEnd == 0 {
			continue // served from the cache: no sweep ran
		}
		sweep := t.addLocked(span{Name: spanSweep, Parent: t.search, Start: c.genEnd, End: c.sweepEnd})
		for _, r := range c.runs {
			t.addLocked(span{Name: spanBuild, Parent: sweep, Start: r.buildStart, End: r.buildEnd})
			runStart := r.buildEnd
			if r.warmEnd != 0 {
				t.addLocked(span{Name: spanWarm, Parent: sweep, Start: r.warmStart, End: r.warmEnd})
				runStart = r.warmEnd
			}
			if r.handles > 0 {
				run := t.addLocked(span{Name: spanRun, Parent: sweep, Start: runStart, End: r.lastHandle})
				t.addLocked(span{Name: spanHandle, Parent: run, Start: r.firstHandle, End: r.lastHandle,
					Busy: r.handleNS, Count: r.handles})
			}
			t.events += r.col.events
			t.bytes += r.col.bytes
			t.buildAlloc += r.buildAlloc
		}
	}
	t.cands, t.open = nil, map[string][]*candidate{}
}

// candidate is one Generator.Benchmark call and the sweep that followed it.
type candidate struct {
	genStart, genEnd int64
	// sweepEnd is when the objective first saw this candidate's profile; the
	// sweep is everything between genEnd and then.
	sweepEnd int64
	runs     []*simRun
}

// simRun is one NewServer call and the life of the server it returned: one
// simulator run of the sweep. Apart from creation it is touched only by the
// goroutine that runs that simulation.
type simRun struct {
	buildStart, buildEnd    int64
	buildAlloc              uint64
	warmStart, warmEnd      int64
	firstHandle, lastHandle int64
	handleNS, handles       int64
	col                     countingCollector
}

// wrap returns cfg with every value the search calls through replaced by a
// timing wrapper. bo is cfg.Optimizer's concrete type.
func (t *tracer) wrap(cfg core.SearchConfig, bo *opt.BayesOpt) core.SearchConfig {
	cfg.Generator = t.generator(cfg.Generator)
	cfg.Optimizer = &tracedOptimizer{inner: bo, t: t}
	cfg.Objective = &tracedObjective{inner: cfg.Objective.(core.AttributedObjective), t: t}
	if cfg.Cache != nil {
		cfg.Cache = &tracedCache{inner: cfg.Cache, t: t}
	}
	return cfg
}

// generator keeps the name (it enters core.EvalKey) and the space.
func (t *tracer) generator(g datagen.Generator) datagen.Generator {
	inner := g.Benchmark
	g.Benchmark = func(x []float64) workload.Benchmark {
		c := &candidate{genStart: t.now()}
		b := inner(x)
		c.genEnd = t.now()
		t.mu.Lock()
		t.cands = append(t.cands, c)
		t.open[b.Name] = append(t.open[b.Name], c)
		t.mu.Unlock()

		newServer := b.NewServer
		b.NewServer = func(l *trace.CodeLayout, seed uint64) workload.Server {
			r := &simRun{buildStart: t.now()}
			var a0 uint64
			if t.measureAlloc {
				a0 = heapAllocBytes()
			}
			srv := newServer(l, seed)
			if t.measureAlloc {
				r.buildAlloc = heapAllocBytes() - a0
			}
			r.buildEnd = t.now()
			t.mu.Lock()
			c.runs = append(c.runs, r)
			t.mu.Unlock()
			return wrapServer(srv, t, r)
		}
		return b
	}
	return g
}

// closeSweep marks the end of the oldest open sweep of the named benchmark.
func (t *tracer) closeSweep(name string, at int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if q := t.open[name]; len(q) > 0 {
		q[0].sweepEnd = at
		t.open[name] = q[1:]
	}
}

// heapAllocBytes is the cumulative bytes allocated on the heap — the
// runtime/metrics view of MemStats.TotalAlloc, read without stopping the
// world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// countingCollector counts the events and data bytes a server emits on
// their way to the collector the driver handed it (the machine).
type countingCollector struct {
	inner         trace.Collector
	events, bytes int64
}

func (c *countingCollector) Load(addr uint64, size int) {
	c.events++
	c.bytes += int64(size)
	c.inner.Load(addr, size)
}

func (c *countingCollector) Store(addr uint64, size int) {
	c.events++
	c.bytes += int64(size)
	c.inner.Store(addr, size)
}

func (c *countingCollector) Exec(r *trace.CodeRegion, instrs int) {
	c.events++
	c.inner.Exec(r, instrs)
}

func (c *countingCollector) Branch(site uint64, taken bool) {
	c.events++
	c.inner.Branch(site, taken)
}

func (c *countingCollector) Ops(n int) {
	c.events++
	c.inner.Ops(n)
}

// tracedServer times Handle and counts what it emits.
type tracedServer struct {
	inner workload.Server
	t     *tracer
	r     *simRun
}

func (s *tracedServer) Name() string { return s.inner.Name() }

func (s *tracedServer) Handle(col trace.Collector, rng *stats.RNG) {
	s.r.col.inner = col
	start := s.t.now()
	s.inner.Handle(&s.r.col, rng)
	end := s.t.now()
	if s.r.handles == 0 {
		s.r.firstHandle = start
	}
	s.r.lastHandle = end
	s.r.handleNS += end - start
	s.r.handles++
}

// tracedWarm times WarmDataset; it exists only for servers that warm.
type tracedWarm struct {
	inner workload.Warmable
	s     *tracedServer
}

func (w tracedWarm) WarmDataset(col trace.Collector) {
	r := w.s.r
	r.col.inner = col
	r.warmStart = w.s.t.now()
	w.inner.WarmDataset(&r.col)
	r.warmEnd = w.s.t.now()
}

// wrapServer returns a server that exposes Warmable, Compressible and Sizer
// exactly when srv does: profile.runOn and workload.Run type-assert them, so
// an always-on method would change what the profiler measures.
func wrapServer(srv workload.Server, t *tracer, r *simRun) workload.Server {
	base := &tracedServer{inner: srv, t: t, r: r}
	w, isW := srv.(workload.Warmable)
	c, isC := srv.(workload.Compressible)
	z, isZ := srv.(workload.Sizer)
	warm := tracedWarm{inner: w, s: base}
	switch {
	case isW && isC && isZ:
		return struct {
			*tracedServer
			tracedWarm
			workload.Compressible
			workload.Sizer
		}{base, warm, c, z}
	case isW && isC:
		return struct {
			*tracedServer
			tracedWarm
			workload.Compressible
		}{base, warm, c}
	case isW && isZ:
		return struct {
			*tracedServer
			tracedWarm
			workload.Sizer
		}{base, warm, z}
	case isC && isZ:
		return struct {
			*tracedServer
			workload.Compressible
			workload.Sizer
		}{base, c, z}
	case isW:
		return struct {
			*tracedServer
			tracedWarm
		}{base, warm}
	case isC:
		return struct {
			*tracedServer
			workload.Compressible
		}{base, c}
	case isZ:
		return struct {
			*tracedServer
			workload.Sizer
		}{base, z}
	}
	return base
}

// tracedOptimizer times proposals and observations and drains the
// optimizer's own GP timings after each proposal (the search leaves them
// alone while telemetry is off). It forwards NextBatch and TakeDiagnostics:
// without the first, opt.FallbackBatch would jitter single proposals and
// change the trajectory; without the second, trace records lose their
// diagnostics.
type tracedOptimizer struct {
	inner *opt.BayesOpt
	t     *tracer
}

var (
	_ opt.BatchOptimizer      = (*tracedOptimizer)(nil)
	_ opt.DiagnosticsReporter = (*tracedOptimizer)(nil)
)

func (o *tracedOptimizer) proposed(start int64) {
	end := o.t.now()
	tm, _ := o.inner.TakeTimings()
	o.t.mu.Lock()
	defer o.t.mu.Unlock()
	o.t.addLocked(span{Name: spanPropose, Parent: o.t.search, Start: start, End: end})
	o.t.gpFit += tm.GPFit
	o.t.acq += tm.Acquisition
	o.t.choleskyRebuilds += tm.CholeskyRebuilds
}

func (o *tracedOptimizer) Next() []float64 {
	start := o.t.now()
	x := o.inner.Next()
	o.proposed(start)
	return x
}

func (o *tracedOptimizer) NextBatch(k int) [][]float64 {
	start := o.t.now()
	xs := o.inner.NextBatch(k)
	o.proposed(start)
	return xs
}

func (o *tracedOptimizer) Observe(x []float64, y float64) {
	start := o.t.now()
	o.inner.Observe(x, y)
	o.t.add(spanObserve, o.t.search, start, o.t.now())
}

func (o *tracedOptimizer) Best() ([]float64, float64, bool) { return o.inner.Best() }
func (o *tracedOptimizer) Name() string                     { return o.inner.Name() }
func (o *tracedOptimizer) TakeDiagnostics() (opt.Diagnostics, bool) {
	return o.inner.TakeDiagnostics()
}

// tracedObjective times scoring. The search calls it right after the sweep
// of the same candidate returns, which is how the sweep's end is seen.
type tracedObjective struct {
	inner core.AttributedObjective
	t     *tracer
}

var _ core.AttributedObjective = (*tracedObjective)(nil)

func (o *tracedObjective) Describe() string { return o.inner.Describe() }

func (o *tracedObjective) Evaluate(p *profile.Profile) float64 {
	e, _ := o.EvaluateAttributed(p)
	return e
}

func (o *tracedObjective) EvaluateAttributed(p *profile.Profile) (float64, map[string]float64) {
	start := o.t.now()
	o.t.closeSweep(p.Benchmark, start)
	e, comps := o.inner.EvaluateAttributed(p)
	o.t.add(spanObjective, o.t.search, start, o.t.now())
	return e, comps
}

// tracedCache times lookups and counts hits.
type tracedCache struct {
	inner core.EvalCache
	t     *tracer
}

func (c *tracedCache) Get(key string) (*profile.Profile, bool) {
	start := c.t.now()
	p, ok := c.inner.Get(key)
	end := c.t.now()
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	c.t.addLocked(span{Name: spanCacheGet, Parent: c.t.search, Start: start, End: end})
	if ok {
		c.t.cacheHits++
	}
	return p, ok
}

func (c *tracedCache) Put(key string, p *profile.Profile) { c.inner.Put(key, p) }
