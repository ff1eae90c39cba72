// Package profile implements Datamime's profiler (§III-A): it runs a
// benchmark on a simulated machine, collects windowed performance-counter
// samples for the Table I metrics, and measures last-level-cache
// sensitivity curves (LLC MPKI and IPC across cache allocations) the way
// the paper does with Dynaway and Intel CAT way-partitioning.
package profile

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"datamime/internal/sim"
	"datamime/internal/stats"
	"datamime/internal/telemetry"
	"datamime/internal/trace"
	"datamime/internal/workload"
)

// MetricID names one profiled metric.
type MetricID string

// The scalar metrics of Table I whose full sample distributions are
// profiled. The two cache-sensitivity curves complete the 10-metric set.
const (
	MetricIPC     MetricID = "ipc"
	MetricL1D     MetricID = "l1d_mpki"
	MetricL2      MetricID = "l2_mpki"
	MetricLLC     MetricID = "llc_mpki"
	MetricICache  MetricID = "icache_mpki"
	MetricITLB    MetricID = "itlb_mpki"
	MetricDTLB    MetricID = "dtlb_mpki"
	MetricBranch  MetricID = "branch_mpki"
	MetricCPUUtil MetricID = "cpu_util"
	MetricMemBW   MetricID = "mem_bw_gbs"

	// MetricCompress is the resident-snapshot compression ratio — the
	// §III-D extension metric. It is recorded only for servers that
	// implement workload.Compressible and is NOT part of the ten-metric
	// Table I error model unless explicitly weighted in.
	MetricCompress MetricID = "compress_ratio"
)

// ScalarMetrics lists every sampled scalar metric, in Table I order.
var ScalarMetrics = []MetricID{
	MetricICache, MetricITLB,
	MetricL1D, MetricL2, MetricDTLB,
	MetricLLC, MetricBranch, MetricCPUUtil, MetricMemBW,
	MetricIPC,
}

// FromSample extracts a metric from one counter window.
func FromSample(s sim.WindowSample, id MetricID) float64 {
	switch id {
	case MetricIPC:
		return s.IPC
	case MetricL1D:
		return s.L1DMPKI
	case MetricL2:
		return s.L2MPKI
	case MetricLLC:
		return s.LLCMPKI
	case MetricICache:
		return s.ICacheMPKI
	case MetricITLB:
		return s.ITLBMPKI
	case MetricDTLB:
		return s.DTLBMPKI
	case MetricBranch:
		return s.BranchMPKI
	case MetricCPUUtil:
		return s.CPUUtil
	case MetricMemBW:
		return s.MemBWGBs
	default:
		panic(fmt.Sprintf("profile: unknown metric %q", id))
	}
}

// CurvePoint is one cache-allocation measurement of the sensitivity curves.
type CurvePoint struct {
	Ways      int     `json:"ways"`
	SizeBytes int     `json:"size_bytes"`
	IPC       float64 `json:"ipc"`
	LLCMPKI   float64 `json:"llc_mpki"`
}

// Profile is the complete performance profile of one benchmark on one
// machine: per-metric sample distributions plus the sensitivity curves.
type Profile struct {
	Benchmark string                 `json:"benchmark"`
	Machine   string                 `json:"machine"`
	Samples   map[MetricID][]float64 `json:"samples"`
	Curve     []CurvePoint           `json:"curve"`
	Requests  int                    `json:"requests"`
}

// Mean returns a metric's sample mean.
func (p *Profile) Mean(id MetricID) float64 { return stats.Mean(p.Samples[id]) }

// ECDF returns a metric's empirical CDF.
func (p *Profile) ECDF(id MetricID) *stats.ECDF { return stats.NewECDF(p.Samples[id]) }

// IPCCurve returns the IPC values of the sensitivity curve, in way order.
func (p *Profile) IPCCurve() []float64 {
	out := make([]float64, len(p.Curve))
	for i, c := range p.Curve {
		out[i] = c.IPC
	}
	return out
}

// LLCCurve returns the LLC MPKI values of the sensitivity curve.
func (p *Profile) LLCCurve() []float64 {
	out := make([]float64, len(p.Curve))
	for i, c := range p.Curve {
		out[i] = c.LLCMPKI
	}
	return out
}

// MarshalJSON/UnmarshalJSON use the default layout; provided via struct
// tags. EncodeJSON renders the profile for the CLI tools.
func (p *Profile) EncodeJSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// DecodeJSON parses a profile produced by EncodeJSON.
func DecodeJSON(data []byte) (*Profile, error) {
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("profile: decoding profile: %w", err)
	}
	return &p, nil
}

// Spec says what a profile measures: the budgets that, with the machine and
// the seed, determine every sample. It is their one listing — Profiler and
// harness.Settings embed it, Key renders it into core.EvalKey, and its JSON
// tags are the wire form of backend.ProfilerSpec. Only the job API's "zero
// keeps the default" override (service.ProfilingSpec) lists the fields
// again, tied to this struct by a reflection test.
type Spec struct {
	// WindowCycles is the counter sampling window (the paper uses 20 M
	// cycles; the simulated default is smaller, and all metrics are rates,
	// so distribution shapes are preserved — see DESIGN.md).
	WindowCycles float64 `json:"window_cycles"`
	// Windows is the number of measured sample windows.
	Windows int `json:"windows"`
	// WarmupWindows run before measurement to warm caches and predictors.
	WarmupWindows int `json:"warmup_windows"`
	// CurveWindows is the number of windows measured per cache-allocation
	// point (the paper uses 11 samples per curve point).
	CurveWindows int `json:"curve_windows"`
	// CurvePoints is the number of cache allocations measured, spread
	// evenly over the machine's partitions (the paper sweeps 1–12 MB).
	CurvePoints int `json:"curve_points"`
	// MaxRequestsPerRun bounds each run; <= 0 uses the driver default.
	MaxRequestsPerRun int `json:"max_requests_per_run"`
	// SkipCurves disables the sensitivity-curve measurement (used by the
	// single-metric range sweeps of Fig. 11, which only target one scalar).
	SkipCurves bool `json:"skip_curves"`
}

// Key renders the spec as the fragment of core.EvalKey's hash input that
// says what is measured. Every field must appear: a budget missing here
// is a stale cache hit — a wrong profile served as a right one.
func (s Spec) Key() string {
	return fmt.Sprintf("wc=%g|w=%d|warm=%d|cw=%d|cp=%d|max=%d|skip=%t",
		s.WindowCycles, s.Windows, s.WarmupWindows, s.CurveWindows,
		s.CurvePoints, s.MaxRequestsPerRun, s.SkipCurves)
}

// Cycles approximates the simulated cycles one fresh profile costs, from
// the windows its runs close: every run — the main run and one per measured
// curve point — closes WarmupWindows before it measures, then the main run
// closes Windows and each curve point CurveWindows. The dataset warm that
// precedes them is excluded.
func (s Spec) Cycles(curvePoints int) float64 {
	windows := (1+curvePoints)*s.WarmupWindows + s.Windows + curvePoints*s.CurveWindows
	return s.WindowCycles * float64(windows)
}

// Profiler collects profiles. The zero value is not usable; call New or
// fill Machine and Spec.
type Profiler struct {
	// Machine is the platform to profile on.
	Machine sim.MachineConfig
	// Spec is what to measure; its fields read and write as the
	// profiler's own (pr.Windows).
	Spec
	// Workers bounds how many of one profile's partition runs (the main run
	// plus one run per sensitivity-curve point) execute concurrently. Each
	// run has its own server, derived seed and worker-local machine; the
	// runs past the first wave restore one recording of the dataset warm
	// (see execute), which leaves the machine a warm from cold would. Results
	// collected by index are therefore bit-for-bit identical to the serial
	// order. <= 1 runs serially. Workers has no effect on measured values
	// and is excluded from core.EvalKey.
	Workers int
	// Budget, when non-nil, caps simulation runs in flight across *all*
	// profilers sharing it — the knob that composes intra-profile Workers
	// with candidate-level batch parallelism under one machine-wide limit.
	// Each run holds one token while it executes, and the tokens free when
	// a sweep starts bound its first wave (see execute).
	Budget *Budget
	// Telemetry, when non-nil, receives one span per main profiling run
	// ("profile.run") and one per sensitivity-curve sweep
	// ("profile.curves"), carrying per-window counter summaries as
	// attributes. It is deliberately excluded from evaluation cache keys
	// (see core.EvalKey) and has no effect on measurements.
	Telemetry *telemetry.Recorder

	// disableWorkerClamp lifts the GOMAXPROCS clamp on the worker pool.
	// Only tests that must exercise pool scheduling and span attribution on
	// hosts with fewer CPUs than workers set it; production sweeps never
	// benefit from more workers than schedulable threads.
	disableWorkerClamp bool
	// classicWarm makes every run of a sweep warm its dataset from cold
	// instead of restoring a warm tape — the reference the taped sweep is
	// tested against, bit for bit.
	classicWarm bool
}

// New returns a Profiler with the defaults used throughout the evaluation.
func New(machine sim.MachineConfig) *Profiler {
	return &Profiler{Machine: machine, Spec: Spec{
		WindowCycles:  400_000,
		Windows:       36,
		WarmupWindows: 5,
		CurveWindows:  6,
		CurvePoints:   0, // all ways, capped at 12 like the paper's CAT setup
	}}
}

// Validate reports configuration errors.
func (pr *Profiler) Validate() error {
	if err := pr.Machine.Validate(); err != nil {
		return err
	}
	if pr.WindowCycles <= 0 {
		return fmt.Errorf("profile: WindowCycles must be positive")
	}
	if pr.Windows <= 0 {
		return fmt.Errorf("profile: Windows must be positive")
	}
	if pr.WarmupWindows < 0 || pr.CurveWindows < 0 || pr.CurvePoints < 0 {
		return fmt.Errorf("profile: negative window/point counts")
	}
	return nil
}

// curveWays returns the way allocations to sweep: up to CurvePoints (or 12)
// allocations, always including 1 way and the full cache. It is derived from
// the machine configuration alone — no simulator state is built.
func (pr *Profiler) curveWays() []int {
	total := pr.Machine.LLCWays()
	points := pr.CurvePoints
	if points <= 0 || points > total {
		points = total
	}
	if points > 12 {
		points = 12
	}
	ways := make([]int, 0, points)
	for i := 0; i < points; i++ {
		w := 1 + i*(total-1)/max(points-1, 1)
		if len(ways) == 0 || ways[len(ways)-1] != w {
			ways = append(ways, w)
		}
	}
	return ways
}

// Profile measures a benchmark: a main run for the scalar metric
// distributions, then one short run per cache allocation for the
// sensitivity curves. seed controls the dataset and arrival streams, so
// different seeds give independent (noisy) measurements of the same
// configuration — the measurement noise §III-C's optimizer must absorb.
func (pr *Profiler) Profile(b workload.Benchmark, seed uint64) (*Profile, error) {
	return pr.ProfileContext(context.Background(), b, seed)
}

// runJob describes one partition run of a profile: the main run (ways == 0,
// full cache) or one sensitivity-curve point.
type runJob struct {
	ways    int
	windows int
}

// runResult carries one run's measurements. Sample slices are copies owned
// by the result, so worker-local machines can be reused across jobs.
type runResult struct {
	samples  []sim.WindowSample
	wall     []sim.WallSample
	requests int
	ratio    float64
}

// ProfileContext is Profile with cancellation: the context is checked
// before every partition run, so a canceled or expired context aborts the
// measurement within one run and returns ctx's error.
func (pr *Profiler) ProfileContext(ctx context.Context, b workload.Benchmark, seed uint64) (*Profile, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Every partition run — the main run and each curve point — has its
	// own machine, server, and derived seed, so the full set can execute on
	// a worker pool and be collected by index with bit-identical results.
	jobs := make([]runJob, 0, 13)
	jobs = append(jobs, runJob{ways: 0, windows: pr.Windows})
	if !pr.SkipCurves {
		for _, ways := range pr.curveWays() {
			jobs = append(jobs, runJob{ways: ways, windows: pr.CurveWindows})
		}
	}
	workers := pr.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	// More workers than schedulable threads cannot run concurrently; they
	// only add goroutine churn and contended claims on the job cursor. Clamp
	// to reality and report the effective count in the run attributes, so
	// traces and the timeline parallel-efficiency report describe the pool
	// that actually executed.
	if p := runtime.GOMAXPROCS(0); workers > p && !pr.disableWorkerClamp {
		workers = p
	}

	runSpan := pr.Telemetry.StartSpan(telemetry.PhaseProfileRun, 0)
	var curveSpan telemetry.Span
	if !pr.SkipCurves {
		curveSpan = pr.Telemetry.StartSpan(telemetry.PhaseProfileCurves, 0)
	}
	results, err := pr.execute(ctx, b, seed, jobs, workers)
	if err != nil {
		return nil, err
	}

	p := &Profile{
		Benchmark: b.Name,
		Machine:   pr.Machine.Name,
		Samples:   make(map[MetricID][]float64, len(ScalarMetrics)),
	}

	// Main run: full cache, Windows samples after warmup. Counter metrics
	// come from busy-cycle windows (hardware sampling semantics); CPU
	// utilization and memory bandwidth come from wall-clock windows, since
	// they are defined over elapsed time.
	main := results[0]
	var runAttrs map[string]float64
	if pr.Telemetry.Enabled() {
		runAttrs = sim.SummarizeWindows(main.samples).Attrs()
		runAttrs["requests"] = float64(main.requests)
		runAttrs["workers"] = float64(workers)
	}
	runSpan.End(runAttrs)
	p.Requests = main.requests
	if main.ratio > 0 {
		// A snapshot property, not a time series: record one sample per
		// window for stable EMD semantics.
		ratios := make([]float64, pr.Windows)
		for i := range ratios {
			ratios[i] = main.ratio
		}
		p.Samples[MetricCompress] = ratios
	}
	for _, id := range ScalarMetrics {
		switch id {
		case MetricCPUUtil:
			vals := make([]float64, len(main.wall))
			for i, w := range main.wall {
				vals[i] = w.CPUUtil
			}
			p.Samples[id] = vals
		case MetricMemBW:
			vals := make([]float64, len(main.wall))
			for i, w := range main.wall {
				vals[i] = w.MemBWGBs
			}
			p.Samples[id] = vals
		default:
			vals := make([]float64, len(main.samples))
			for i, s := range main.samples {
				vals[i] = FromSample(s, id)
			}
			p.Samples[id] = vals
		}
	}

	if pr.SkipCurves {
		return p, nil
	}
	// Sensitivity curves: aggregate each allocation's run, in way order.
	bytesPerWay := pr.Machine.LLC().Sets() * trace.LineSize
	for i, r := range results[1:] {
		var instrs, llcMisses, busy float64
		for _, s := range r.samples {
			k := float64(s.Instructions)
			instrs += k
			llcMisses += s.LLCMPKI * k / 1000
			if s.IPC > 0 {
				busy += k / s.IPC
			}
		}
		pt := CurvePoint{
			Ways:      jobs[i+1].ways,
			SizeBytes: bytesPerWay * jobs[i+1].ways,
		}
		if instrs > 0 {
			pt.LLCMPKI = llcMisses / instrs * 1000
		}
		if busy > 0 {
			pt.IPC = instrs / busy
		}
		p.Curve = append(p.Curve, pt)
	}
	var curveAttrs map[string]float64
	if pr.Telemetry.Enabled() {
		curveAttrs = map[string]float64{
			"points":          float64(len(p.Curve)),
			"windows_per_pt":  float64(pr.CurveWindows),
			"full_cache_ways": float64(pr.Machine.LLCWays()),
			"bytes_per_way":   float64(bytesPerWay),
			"workers":         float64(workers),
		}
	}
	curveSpan.End(curveAttrs)
	return p, nil
}

// execute runs every job and collects results by index. With one worker it
// runs inline in job order; otherwise a pool of workers pulls jobs from a
// shared counter, each reusing one worker-local machine across its jobs.
// Either way each run holds a Budget token (when one is shared) while the
// simulation executes. Machines and warm tapes come from the free list of
// the profiler's machine configuration and go back to it.
//
// The runs of a sweep warm identical datasets, so one warm serves them
// (sim.WarmTape). Run 0 records it, carrying one LLC lane per allocation of
// the runs that restore it; they wait for its seal outside the Budget, and
// a recording that fails releases them with its error. The first wave,
// runs 0..wave-1, starts together, and its runs after run 0 warm
// classically so that workers with nothing else to do do not idle through
// the recording. It is as wide as the pool and the Budget's free tokens
// allow when the sweep starts, each of its runs keeping the token taken for
// it, and always leaves at least the last run to restore. Serially, or when
// no token is free, every run but the first restores.
func (pr *Profiler) execute(ctx context.Context, b workload.Benchmark, seed uint64, jobs []runJob, workers int) ([]runResult, error) {
	results := make([]runResult, len(jobs))
	free := freeListFor(pr.Machine)
	// Runs 0..held-1 hold a token taken here. Every worker claims a run
	// before it can stop, so each of them is claimed, and released when it
	// runs or is skipped.
	held := 0
	var share *warmShare
	if len(jobs) > 1 && !pr.classicWarm {
		wave := min(workers, len(jobs)-1)
		if workers > 1 && pr.Budget != nil {
			held = pr.Budget.TryAcquire(wave)
			wave = max(held, 1)
		}
		allocs := make([]int, 0, len(jobs)-wave)
		for _, job := range jobs[wave:] {
			allocs = append(allocs, job.ways)
		}
		share = &warmShare{tape: free.tape(allocs), restoreFrom: wave, sealed: make(chan struct{})}
		defer free.putTape(share.tape)
	}
	if workers <= 1 {
		m := free.machine(pr.WindowCycles)
		defer free.putMachine(m)
		for i, job := range jobs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var err error
			if results[i], err = pr.runInstrumented(ctx, m, b, seed, i, job, 0, share, false); err != nil {
				return nil, err
			}
		}
		return results, nil
	}
	// The shared job cursor sits alone on its cache line: every claim is a
	// contended atomic RMW, and without padding it false-shares with
	// whatever the allocator places next to it. (results needs no padding:
	// runResult is exactly 64 bytes, so workers completing adjacent jobs
	// write disjoint lines.)
	next := &paddedCursor{}
	errs := make([]error, len(jobs))
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// The worker-local machine is taken lazily on the first claimed
			// job: a worker that never wins a claim (more workers than jobs
			// remaining) leaves the free list alone.
			var m *sim.Machine
			defer func() {
				if m != nil {
					free.putMachine(m)
				}
			}()
			for {
				i := int(next.n.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if ctx.Err() != nil || failed.Load() {
					if i == 0 {
						share.release(errors.New("profile: sweep stopped before its warm was recorded"))
					}
					if i < held {
						pr.Budget.Release()
					}
					return
				}
				if m == nil {
					m = free.machine(pr.WindowCycles)
				}
				results[i], errs[i] = pr.runInstrumented(ctx, m, b, seed, i, jobs[i], worker, share, i < held)
				if i == 0 {
					// A no-op once the warm is sealed.
					share.release(errs[i])
				}
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// warmShare is how the runs of one sweep share its dataset warm: run 0
// records the tape, runs from restoreFrom on restore it once it is sealed,
// and the runs between warm classically.
type warmShare struct {
	tape        *sim.WarmTape
	restoreFrom int
	sealed      chan struct{} // closed by release
	once        sync.Once
	err         error // why there is no recording to restore
}

// mode returns how run i warms. A nil share warms every run classically.
func (s *warmShare) mode(i int) sim.WarmMode {
	switch {
	case s == nil:
		return sim.WarmClassic
	case i == 0:
		return sim.WarmRecord
	case i < s.restoreFrom:
		return sim.WarmClassic
	}
	return sim.WarmRestore
}

// release lets the restoring runs go: after the seal with a nil err, or
// with the error that kept the recording from being sealed. Only the first
// call counts.
func (s *warmShare) release(err error) {
	if s == nil {
		return
	}
	s.once.Do(func() {
		s.err = err
		close(s.sealed)
	})
}

// wait blocks a restoring run until release, or until ctx ends.
func (s *warmShare) wait(ctx context.Context) error {
	select {
	case <-s.sealed:
		return s.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runInstrumented wraps one runOn in the per-run telemetry spans: a
// budget.wait span for time blocked on the shared simulation budget (only
// when a budget is actually shared — a nil Budget never waits) and a
// profile.sim span tagged with the pool worker index and way allocation,
// the raw material of the per-worker trace timelines and the utilization
// report, and with where the run's time went (build, warm, measure).
// Telemetry never affects which jobs run or in what order, so results stay
// bit-identical with it on or off. A restoring run first waits for the
// recording's seal, holding no budget token; a held run already holds its
// token (see execute) and only releases it.
func (pr *Profiler) runInstrumented(ctx context.Context, m *sim.Machine, b workload.Benchmark, seed uint64, i int, job runJob, worker int, share *warmShare, held bool) (runResult, error) {
	mode := share.mode(i)
	if mode == sim.WarmRestore {
		if err := share.wait(ctx); err != nil {
			return runResult{}, err
		}
	}
	if pr.Budget != nil {
		// A held run's wait is empty: its token was free when the sweep
		// started.
		wait := pr.Telemetry.StartSpan(telemetry.PhaseBudgetWait, 0)
		if !held {
			pr.Budget.Acquire()
		}
		wait.End(pr.runAttrs(worker, job))
		defer pr.Budget.Release()
	}
	var ph *runPhases
	if pr.Telemetry.Enabled() {
		ph = new(runPhases)
	}
	span := pr.Telemetry.StartSpan(telemetry.PhaseSimRun, 0)
	res, err := pr.runOn(m, b, seed, job, mode, share, ph)
	attrs := pr.runAttrs(worker, job)
	if ph != nil {
		attrs[telemetry.AttrBuildNS] = float64(ph.ns[phaseBuild])
		attrs[telemetry.AttrWarmNS] = float64(ph.ns[phaseWarm])
		attrs[telemetry.AttrMeasureNS] = float64(ph.ns[phaseMeasure])
		attrs[telemetry.AttrWarm] = float64(ph.warm)
	}
	span.End(attrs)
	return res, err
}

// runAttrs builds the worker/ways attribute map for one run's spans, or nil
// when telemetry is disabled so the hot path does not allocate.
func (pr *Profiler) runAttrs(worker int, job runJob) map[string]float64 {
	if !pr.Telemetry.Enabled() {
		return nil
	}
	return map[string]float64{
		telemetry.AttrWorker: float64(worker),
		telemetry.AttrWays:   float64(job.ways),
	}
}

// The sub-phases of one run.
const (
	phaseBuild = iota
	phaseWarm
	phaseMeasure
)

// runPhases is where one run's time went. runOn fills it when telemetry is
// on; a nil *runPhases reads no clock.
type runPhases struct {
	last time.Time
	ns   [3]time.Duration
	warm sim.WarmMode // telemetry.AttrWarm
}

// lap charges the time since the previous lap to phase.
func (p *runPhases) lap(phase int) {
	if p == nil {
		return
	}
	now := time.Now()
	if !p.last.IsZero() {
		p.ns[phase] += now.Sub(p.last)
	}
	p.last = now
}

// runOn executes one profiling run on a reused machine: ResetWindows to the
// cold state at the profiler's window length, optional LLC partition, fresh
// server, warmup, then measured windows. ResetWindows is bit-for-bit
// equivalent to a fresh machine (pinned by
// internal/sim's reset-equivalence test), so reuse does not perturb
// measurements. The dataset warm runs in mode: classically, recording the
// share's tape (whose seal releases the restoring runs), or restoring it —
// and a restore that does not see the recorded event stream fails the run.
func (pr *Profiler) runOn(m *sim.Machine, b workload.Benchmark, seed uint64, job runJob, mode sim.WarmMode, share *warmShare, ph *runPhases) (runResult, error) {
	ph.lap(phaseBuild)
	m.ResetWindows(pr.WindowCycles)
	if job.ways > 0 {
		m.SetLLCPartition(job.ways)
	}
	m.ReserveSamples(job.windows + 1)
	layout := trace.NewCodeLayout()
	srv := b.NewServer(layout, stats.HashSeed(seed, "dataset"))
	ph.lap(phaseBuild)
	if w, ok := srv.(workload.Warmable); ok {
		switch mode {
		case sim.WarmRecord:
			m.RecordWarm(share.tape)
		case sim.WarmRestore:
			m.RestoreWarm(share.tape)
		}
		if ph != nil {
			ph.warm = mode
		}
		w.WarmDataset(m)
		if mode != sim.WarmClassic {
			if err := m.EndWarm(); err != nil {
				return runResult{}, fmt.Errorf("profile: benchmark %q: warming the %d-way run: %w (identically built servers must emit identical warm events)", b.Name, job.ways, err)
			}
		}
		if mode == sim.WarmRecord {
			share.release(nil)
		}
		m.FlushSamples()
		ph.lap(phaseWarm)
	} else if mode == sim.WarmRecord {
		// Nothing to record, and the other runs' servers have no warm
		// either.
		share.release(nil)
	}
	if pr.WarmupWindows > 0 {
		workload.Run(m, b, srv, pr.WarmupWindows, stats.HashSeed(seed, "warmup"), pr.MaxRequestsPerRun)
		m.FlushSamples()
	}
	res := workload.Run(m, b, srv, job.windows, stats.HashSeed(seed, fmt.Sprintf("measure-%d", job.ways)), pr.MaxRequestsPerRun)
	ph.lap(phaseMeasure)
	// A profile reads the main run's ratio only, and computing one scans
	// the whole resident dataset.
	ratio := 0.0
	if c, ok := srv.(workload.Compressible); ok && job.ways == 0 {
		ratio = c.CompressionRatio()
	}
	return runResult{
		samples:  append([]sim.WindowSample(nil), m.Samples()...),
		wall:     append([]sim.WallSample(nil), m.WallSamples()...),
		requests: res.Requests,
		ratio:    ratio,
	}, nil
}

// paddedCursor is the sweep's shared job counter, padded to its own cache
// line on both sides so claim traffic never false-shares with neighbors.
type paddedCursor struct {
	_ [64]byte
	n atomic.Int64
	_ [56]byte
}
