package main

import (
	"runtime"
	"sort"
	"time"

	"datamime/internal/sim"
	"datamime/internal/stats"
	"datamime/internal/trace"
	"datamime/internal/workload"
)

const msPerNS = 1e-6

// layerMetrics turns the spans and counts of the traced search into the
// per-layer metrics. Layer times are sums over spans; where spans overlap
// (search-kv-par2) they are busy-sums, and wall-like quantities use the
// union of the intervals.
func layerMetrics(t *tracer, w workloadDef, traced searchRun) map[string]float64 {
	var search span
	byName := map[string][]span{}
	var topLevel []span
	for _, s := range t.spans {
		if s.Search != t.search {
			continue
		}
		if s.ID == t.search {
			search = s
			continue
		}
		byName[s.Name] = append(byName[s.Name], s)
		if s.Parent == t.search {
			topLevel = append(topLevel, s)
		}
	}
	sum := func(name string) float64 {
		var ns int64
		for _, s := range byName[name] {
			if s.Busy != 0 {
				ns += s.Busy
			} else {
				ns += s.dur()
			}
		}
		return float64(ns) * msPerNS
	}
	durs := func(name string) []float64 {
		out := make([]float64, len(byName[name]))
		for i, s := range byName[name] {
			out[i] = float64(s.dur()) * msPerNS
		}
		return out
	}
	var requests float64
	for _, s := range byName[spanHandle] {
		requests += float64(s.Count)
	}

	wall := float64(search.dur()) * msPerNS
	sweep := float64(unionNS(byName[spanSweep])) * msPerNS
	runMS := sum(spanRun)
	busy := sum(spanBuild) + sum(spanWarm) + runMS
	// conc is how many simulations the search may run at once; profile.self
	// is the sweep wall that perfectly packed busy work would not need.
	conc := float64(min(runtime.GOMAXPROCS(0), w.parallel))
	profileSelf := sweep - busy/conc
	coreSelf := wall - float64(unionNS(topLevel))*msPerNS
	propose := durs(spanPropose)

	m := map[string]float64{
		"search.wall_ms":         wall,
		"search.eval_ms_p50":     stats.Median(traced.evalMS),
		"search.eval_ms_p75":     stats.Percentile(traced.evalMS, 75),
		"search.best_error":      traced.res.BestError,
		"datagen.benchmark_ms":   sum(spanDatagen),
		"apps.build_ms":          sum(spanBuild),
		"apps.build_calls":       float64(len(byName[spanBuild])),
		"apps.build_alloc_mb":    float64(t.buildAlloc) / (1 << 20),
		"apps.handle_ms":         sum(spanHandle),
		"apps.requests":          requests,
		"sim.warm_ms":            sum(spanWarm),
		"sim.events":             float64(t.events),
		"sim.bytes":              float64(t.bytes),
		"workload.run_ms":        runMS,
		"workload.driver_ms":     runMS - sum(spanHandle),
		"profile.sweep_ms":       sweep,
		"profile.sweep_share":    sweep / wall,
		"profile.runs":           float64(len(byName[spanRun])),
		"profile.self_ms":        profileSelf,
		"opt.propose_ms":         sum(spanPropose),
		"opt.propose_ms_p50":     stats.Median(propose),
		"opt.propose_ms_max":     stats.Percentile(propose, 100),
		"opt.observe_ms":         sum(spanObserve),
		"opt.gp_fit_ms":          float64(t.gpFit) * msPerNS,
		"opt.acq_ms":             float64(t.acq) * msPerNS,
		"opt.cholesky_rebuilds":  float64(t.choleskyRebuilds),
		"core.objective_ms":      sum(spanObjective),
		"core.objective_us_p50":  1e3 * stats.Median(durs(spanObjective)),
		"core.cache_get_us_p50":  1e3 * stats.Median(durs(spanCacheGet)),
		"core.cache_hits":        float64(t.cacheHits),
		"core.self_ms":           coreSelf,
		"trace.unexplained_frac": (coreSelf + profileSelf) / wall,
	}
	if sweep > 0 {
		m["profile.pool_speedup"] = busy / sweep
		m["sim.mcycles_per_host_s"] = traced.res.SimulatedCycles / 1e6 / (sweep / 1e3)
	}
	return m
}

// unionNS is the total time covered by at least one of the spans.
func unionNS(spans []span) int64 {
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total, end int64
	for _, sp := range s {
		if sp.Start > end {
			total += sp.End - sp.Start
			end = sp.End
		} else if sp.End > end {
			total += sp.End - end
			end = sp.End
		}
	}
	return total
}

// probeEvents caps the recorded event stream (24 bytes an event).
const probeEvents = 1 << 20

// event is one recorded trace.Collector call.
type event struct {
	kind   uint8
	taken  bool
	size   int32
	addr   uint64
	region *trace.CodeRegion
}

const (
	evLoad = iota
	evStore
	evExec
	evBranch
	evOps
)

// eventRecorder keeps the first probeEvents events it forwards.
type eventRecorder struct {
	inner  trace.Collector
	events []event
}

func (r *eventRecorder) keep(e event) {
	if len(r.events) < probeEvents {
		r.events = append(r.events, e)
	}
}

func (r *eventRecorder) Load(addr uint64, size int) {
	r.keep(event{kind: evLoad, addr: addr, size: int32(size)})
	r.inner.Load(addr, size)
}

func (r *eventRecorder) Store(addr uint64, size int) {
	r.keep(event{kind: evStore, addr: addr, size: int32(size)})
	r.inner.Store(addr, size)
}

func (r *eventRecorder) Exec(region *trace.CodeRegion, instrs int) {
	r.keep(event{kind: evExec, region: region, size: int32(instrs)})
	r.inner.Exec(region, instrs)
}

func (r *eventRecorder) Branch(site uint64, taken bool) {
	r.keep(event{kind: evBranch, addr: site, taken: taken})
	r.inner.Branch(site, taken)
}

func (r *eventRecorder) Ops(n int) {
	r.keep(event{kind: evOps, size: int32(n)})
	r.inner.Ops(n)
}

// recordingServer routes a server's events through an eventRecorder.
type recordingServer struct {
	workload.Server
	rec *eventRecorder
}

func (s recordingServer) Handle(col trace.Collector, rng *stats.RNG) {
	s.rec.inner = col
	s.Server.Handle(s.rec, rng)
}

func replay(m *sim.Machine, events []event) {
	for _, e := range events {
		switch e.kind {
		case evLoad:
			m.Load(e.addr, int(e.size))
		case evStore:
			m.Store(e.addr, int(e.size))
		case evExec:
			m.Exec(e.region, int(e.size))
		case evBranch:
			m.Branch(e.addr, e.taken)
		case evOps:
			m.Ops(int(e.size))
		}
	}
}

// timeNS runs f n times and returns the fastest and the median, in ns.
func timeNS(n int, f func()) (best, median float64) {
	samples := make([]float64, n)
	for i := range samples {
		start := time.Now()
		f()
		samples[i] = float64(time.Since(start))
	}
	return stats.Min(samples), stats.Median(samples)
}

// runProbes measures single layers on the best candidate, outside any
// search: one measured run is recorded into memory and replayed into fresh
// machines (the kernel alone, used both ways the sweep uses it), the
// candidate's requests are replayed into a counting collector (emission
// alone), and machine construction and reset are timed.
func runProbes(p *prepared, best []float64) map[string]float64 {
	pr := p.profiler
	b := p.gen.Benchmark(best)
	dataset := stats.HashSeed(searchSeed, "dataset")

	var m *sim.Machine
	_, newMachine := timeNS(5, func() { m = sim.NewMachine(pr.Machine, pr.WindowCycles) })

	srv := b.NewServer(trace.NewCodeLayout(), dataset)
	if w, ok := srv.(workload.Warmable); ok {
		w.WarmDataset(m)
		m.FlushSamples()
	}
	rec := &eventRecorder{}
	res := workload.Run(m, b, recordingServer{srv, rec}, pr.Windows, stats.HashSeed(searchSeed, "measure-0"), pr.MaxRequestsPerRun)
	perEvent := func(ns float64) float64 { return ns / float64(max(len(rec.events), 1)) }

	// The first replay warms the caches the way WarmDataset does for a
	// sweep run; the timed ones see the steady state.
	m = sim.NewMachine(pr.Machine, pr.WindowCycles)
	replay(m, rec.events)
	full, _ := timeNS(3, func() { replay(m, rec.events) })
	_, reset := timeNS(5, func() { m.Reset() })
	m.SetLLCPartition(1)
	replay(m, rec.events)
	oneWay, _ := timeNS(3, func() { replay(m, rec.events) })

	emitter := b.NewServer(trace.NewCodeLayout(), dataset)
	count := &countingCollector{inner: trace.Null{}}
	rng := stats.NewRNG(stats.HashSeed(searchSeed, "probe"))
	emit, _ := timeNS(1, func() {
		for i := 0; i < res.Requests; i++ {
			emitter.Handle(count, rng)
		}
	})

	return map[string]float64{
		"apps.emit_ns_per_event":       emit / float64(max(count.events, 1)),
		"sim.replay_ns_per_event":      perEvent(full),
		"sim.replay_ns_per_event_1way": perEvent(oneWay),
		"sim.new_machine_ms":           newMachine * msPerNS,
		"sim.reset_us":                 reset * 1e-3,
	}
}
