package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"datamime"
	"datamime/internal/core"
	"datamime/internal/corpus"
	"datamime/internal/stats"
	"datamime/internal/telemetry"
)

// setupRounds is how many times the cheap part of set-up (profile the
// target, build the objective) runs; setup_s reports the median.
const setupRounds = 3

// searchRun is one whole search and what the checks and metrics take of it.
type searchRun struct {
	res  *core.Result
	wall time.Duration
	// evalMS holds one per-iteration wall per evaluation: the time between
	// the last OnEval of consecutive batches, divided by the batch size.
	// evalCPU is the process CPU time over the same intervals, in seconds.
	evalMS, evalCPU []float64
	// tailS and tailCPU are what the search spent after its last OnEval.
	tailS, tailCPU float64
	fingerprint    string
}

// runSearch runs the workload's search once through the public API, with
// tr's wrappers around everything the search calls when tr is non-nil.
func runSearch(p *prepared, tr *tracer, rec *telemetry.Recorder) (searchRun, error) {
	cfg, bo := p.config()
	cfg.Telemetry = rec
	var run searchRun
	var batchStart time.Time
	var batchCPU float64
	inBatch := 0
	cfg.OnEval = func(core.EvalEvent) {
		inBatch++
		if done := len(run.evalMS) + inBatch; inBatch < cfg.Parallel && done < cfg.Iterations {
			return
		}
		now, cpu := time.Now(), cpuSeconds()
		per := now.Sub(batchStart).Seconds() * 1e3 / float64(inBatch)
		perCPU := (cpu - batchCPU) / float64(inBatch)
		for ; inBatch > 0; inBatch-- {
			run.evalMS = append(run.evalMS, per)
			run.evalCPU = append(run.evalCPU, perCPU)
		}
		batchStart, batchCPU = now, cpu
	}
	if tr != nil {
		cfg = tr.wrap(cfg, bo)
		tr.begin()
	}
	start := time.Now()
	batchStart, batchCPU = start, cpuSeconds()
	res, err := datamime.SearchContext(context.Background(), cfg)
	end := time.Now()
	run.wall = end.Sub(start)
	run.tailS, run.tailCPU = end.Sub(batchStart).Seconds(), cpuSeconds()-batchCPU
	if tr != nil {
		tr.end()
	}
	if err != nil {
		return run, fmt.Errorf("%s: %w", p.def.name, err)
	}
	run.res = res
	run.fingerprint = fingerprint(res)
	return run, nil
}

// fingerprint identifies a trajectory bit for bit: the per-iteration errors
// and every parameter vector. It is printed, never pinned to a golden, so a
// declared re-baseline does not need a benchmark edit.
func fingerprint(res *core.Result) string {
	if len(res.Trace) == 0 {
		return "empty"
	}
	errs := make([]float64, len(res.Trace))
	var params []float64
	for i, r := range res.Trace {
		errs[i] = r.Error
		params = append(params, r.Params...)
	}
	return corpus.TrajectoryHash(errs)[:16] + "-" + corpus.TrajectoryHash(params)[:16]
}

// checks collects output-check violations; any one makes the run incorrect.
type checks struct {
	attempted, failed int
	violations        []string
}

func (c *checks) failf(format string, args ...any) {
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

// search checks what every search of a workload must satisfy: no failed
// evaluation, the trajectory of the first search, and on the cached
// workload a full set of cache hits.
func (c *checks) search(what string, p *prepared, run searchRun, want string) {
	c.attempted += p.def.iterations
	failed := p.def.iterations - run.res.Evaluations
	c.failed += failed
	if failed != 0 {
		c.failf("%s: %d of %d evaluations failed or were skipped", what, failed, p.def.iterations)
	}
	if run.fingerprint != want {
		c.failf("%s: fingerprint %s, want %s", what, run.fingerprint, want)
	}
	if p.def.cached && run.res.CacheHits != p.def.iterations {
		c.failf("%s: %d cache hits, want %d", what, run.res.CacheHits, p.def.iterations)
	}
}

// coldFill runs the cached workload's search once to fill the cache; the
// searches after it must reproduce its trajectory from cache alone.
func coldFill(p *prepared, c *checks) (string, error) {
	cold, err := runSearch(p, nil, nil)
	if err != nil {
		return "", err
	}
	c.attempted += p.def.iterations
	c.failed += p.def.iterations - cold.res.Evaluations
	if cold.res.Evaluations != p.def.iterations {
		c.failf("cold fill: %d of %d evaluations", cold.res.Evaluations, p.def.iterations)
	}
	return cold.fingerprint, nil
}

// runEndToEnd is the untraced pass: set-up, then the same search repeated.
// repeats 0 starts another search while less than seconds have been measured
// or fewer than the workload's minimum are done: a whole search is the unit,
// so the last one overruns. search_wall_s and cpu_s are quiet sums over the
// repeats (see quietSum), with the whole-search range beside them.
func runEndToEnd(w workloadDef, seed uint64, seconds float64, repeats int, out io.Writer) (*workloadResult, *checks, int, error) {
	c := &checks{}
	var p *prepared
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		var err error
		if p, err = prepare(w, seed); err != nil {
			return nil, nil, 0, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	setup := summarize(setups, "s")
	want := ""
	if w.cached {
		start := time.Now()
		fp, err := coldFill(p, c)
		if err != nil {
			return nil, nil, 0, err
		}
		want = fp
		fill := time.Since(start).Seconds()
		setup.Value, setup.Min, setup.Max = setup.Value+fill, setup.Min+fill, setup.Max+fill
	}

	var walls, cpus []float64
	var wallParts, cpuParts [][]float64
	alloc0 := heapAllocBytes()
	measureStart := time.Now()
	for {
		run, err := runSearch(p, nil, nil)
		if err != nil {
			return nil, nil, 0, err
		}
		if want == "" {
			want = run.fingerprint
		}
		c.search(fmt.Sprintf("repeat %d", len(walls)+1), p, run, want)
		wallPart, cpuPart, cpu := []float64{run.tailS}, []float64{run.tailCPU}, run.tailCPU
		for i, ms := range run.evalMS {
			wallPart = append(wallPart, ms/1e3)
			cpuPart = append(cpuPart, run.evalCPU[i])
			cpu += run.evalCPU[i]
		}
		wallParts, cpuParts = append(wallParts, wallPart), append(cpuParts, cpuPart)
		walls, cpus = append(walls, run.wall.Seconds()), append(cpus, cpu)
		fmt.Fprintf(out, "  repeat %d: %.3f s, cpu %.3f s, best_error %v, fingerprint %s\n",
			len(walls), run.wall.Seconds(), cpus[len(cpus)-1], run.res.BestError, run.fingerprint)
		done := len(walls) >= repeats
		if repeats == 0 {
			done = len(walls) >= w.minRepeats && time.Since(measureStart).Seconds() >= seconds
		}
		if done {
			break
		}
	}
	alloc := float64(heapAllocBytes()-alloc0) / float64(len(walls)*w.iterations)
	wall, cpu := summarize(walls, "s"), summarize(cpus, "s")
	fmt.Fprintf(out, "  whole searches: median %.3f s, cpu %.3f s; quiet sums below, beside the whole searches' min and max\n",
		wall.Value, cpu.Value)
	wall.Value, cpu.Value = quietSum(wallParts), quietSum(cpuParts)

	return &workloadResult{
		Fingerprint: want,
		EndToEnd: map[string]measured{
			"setup_s":           setup,
			"search_wall_s":     wall,
			"cpu_s":             cpu,
			"alloc_mb_per_eval": single(alloc/(1<<20), "MB"),
			"peak_rss_mb":       single(peakRSSMB(), "MB"),
		},
	}, c, len(walls), nil
}

// summarize reports the median of samples with their range.
func summarize(samples []float64, unit string) measured {
	return measured{Value: stats.Median(samples), Unit: unit,
		Min: stats.Min(samples), Max: stats.Max(samples), Samples: len(samples)}
}

// quietSum is what one search costs with every part of it — each evaluation,
// and what follows the last — taken at its fastest over the repeats. The
// repeats do identical work part by part (the fingerprint check holds them
// to one trajectory) and the shared host only ever adds time, in bursts of
// seconds to tens of seconds, so the fastest of each part tracks the
// undisturbed cost where the median of whole searches tracks the host. With
// one repeat it is that search's total.
func quietSum(repeats [][]float64) float64 {
	var sum float64
	at := make([]float64, len(repeats))
	for i := range repeats[0] {
		for r, parts := range repeats {
			at[r] = parts[i]
		}
		sum += stats.Min(at)
	}
	return sum
}

// slowdown is how much slower search b ran than search a, evaluation by
// evaluation: the median of the per-evaluation ratios. A burst of host noise
// in either search moves it far less than it moves the ratio of their walls.
func slowdown(a, b []float64) float64 {
	ratios := make([]float64, 0, len(a))
	for i := range a {
		if a[i] > 0 {
			ratios = append(ratios, b[i]/a[i])
		}
	}
	return stats.Median(ratios)
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// runTraced is the traced pass: one untraced reference search, the same
// search with every boundary wrapped, then the probes. It returns the spans
// for the trace file. The untraced reference is repeated while it is cheap
// (at least once, until refBudget is spent), because the overhead and
// telemetry ratios divide by it.
func runTraced(w workloadDef, seed uint64, refBudget time.Duration, out io.Writer) (*workloadResult, *checks, []span, error) {
	c := &checks{}
	p, err := prepare(w, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	want := ""
	if w.cached {
		if want, err = coldFill(p, c); err != nil {
			return nil, nil, nil, err
		}
	}
	var refWalls []float64
	var refEvals [][]float64
	for start := time.Now(); len(refWalls) == 0 || time.Since(start) < refBudget; {
		ref, err := runSearch(p, nil, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		if want == "" {
			want = ref.fingerprint
		}
		c.search("untraced", p, ref, want)
		refWalls = append(refWalls, ref.wall.Seconds())
		refEvals = append(refEvals, ref.evalMS)
	}
	refWall := stats.Median(refWalls)
	refEval := make([]float64, w.iterations)
	for i := range refEval {
		at := make([]float64, len(refEvals))
		for j, evals := range refEvals {
			at[j] = evals[i]
		}
		refEval[i] = stats.Median(at)
	}

	tr := newTracer(w.parallel == 1)
	traced, err := runSearch(p, tr, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	c.search("traced", p, traced, want)
	fmt.Fprintf(out, "  untraced %.3f s (median of %d), traced %.3f s, fingerprint %s\n",
		refWall, len(refWalls), traced.wall.Seconds(), traced.fingerprint)

	m := layerMetrics(tr, w, traced)
	m["trace.overhead_frac"] = slowdown(refEval, traced.evalMS) - 1
	if w.cached && m["core.cache_hits"] != float64(w.iterations) {
		c.failf("traced: wrapped cache saw %v hits, want %d", m["core.cache_hits"], w.iterations)
	}
	for name, v := range runProbes(p, traced.res.BestParams) {
		m[name] = v
	}
	if w.cached {
		// The repo's own telemetry, switched on over the cheapest search,
		// where its cost is largest relative to the work.
		rec := telemetry.New(telemetry.Options{OnEvent: telemetry.NewJSONLSink(io.Discard)})
		on, err := runSearch(p, nil, rec)
		if err != nil {
			return nil, nil, nil, err
		}
		c.search("telemetry on", p, on, want)
		m["telemetry.on_over_off"] = slowdown(refEval, on.evalMS)
	}

	layers := make(map[string]measured, len(perLayer))
	for _, d := range perLayer {
		layers[d.Name] = single(m[d.Name], d.Unit)
	}
	return &workloadResult{Fingerprint: want, PerLayer: layers}, c, tr.spans, nil
}
