// Package profile implements Datamime's profiler (§III-A): it runs a
// benchmark on a simulated machine, collects windowed performance-counter
// samples for the Table I metrics, and measures last-level-cache
// sensitivity curves (LLC MPKI and IPC across cache allocations) the way
// the paper does with Dynaway and Intel CAT way-partitioning.
package profile

import (
	"context"
	"encoding/json"
	"fmt"
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
	// MaxRequestsPerRun bounds the requests of a profile's pass, warmup
	// and measurement together; <= 0 uses the driver default.
	MaxRequestsPerRun int `json:"max_requests_per_run"`
	// SkipCurves disables the sensitivity-curve measurement (used by the
	// single-metric range sweeps of Fig. 11, which only target one scalar).
	SkipCurves bool `json:"skip_curves"`
}

// Method names how a profile is measured. It leads Key, so that a profile
// measured another way — before one pass carried every allocation, each
// allocation had a run and a request stream of its own — never hits or
// compares as one measured this way.
const Method = "one-pass"

// Key renders the spec as the fragment of core.EvalKey's hash input that
// says what is measured, and how (Method). Every field must appear: a
// budget missing here is a stale cache hit — a wrong profile served as a
// right one.
func (s Spec) Key() string {
	return fmt.Sprintf("method=%s|wc=%g|w=%d|warm=%d|cw=%d|cp=%d|max=%d|skip=%t", Method,
		s.WindowCycles, s.Windows, s.WarmupWindows, s.CurveWindows,
		s.CurvePoints, s.MaxRequestsPerRun, s.SkipCurves)
}

// Cycles approximates the simulated cycles one fresh profile costs, from
// the windows its lanes close: every lane — the main lane and one per
// measured curve point — closes WarmupWindows before it measures, then the
// main lane closes Windows and each curve point CurveWindows. The dataset
// warm that precedes them is excluded.
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
	// Budget, when non-nil, caps the profiles in flight across *all*
	// profilers sharing it: each profile holds one token for its pass.
	Budget *Budget
	// Telemetry, when non-nil, receives per profile a "profile.run" span
	// for the main lane and a "profile.curves" span for the sensitivity
	// curves, carrying per-window counter summaries as attributes, and a
	// "profile.sim" span for the pass. It is deliberately excluded from
	// evaluation cache keys (see core.EvalKey) and has no effect on
	// measurements.
	Telemetry *telemetry.Recorder
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

// Profile measures a benchmark in one pass of one server on one machine:
// the main lane, at the full cache, samples the scalar metric
// distributions, and one lane per cache allocation measures the
// sensitivity curves. seed controls the dataset and arrival streams, so
// different seeds give independent (noisy) measurements of the same
// configuration — the measurement noise §III-C's optimizer must absorb.
func (pr *Profiler) Profile(b workload.Benchmark, seed uint64) (*Profile, error) {
	return pr.ProfileContext(context.Background(), b, seed)
}

// runResult carries the main lane's measurements, owned by the result.
type runResult struct {
	samples  []sim.WindowSample
	wall     []sim.WallSample
	requests int
	ratio    float64
}

// ProfileContext is Profile with cancellation: the context is checked
// before every request of the pass, so a canceled or expired context
// aborts the measurement within one request and returns ctx's error.
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
	var ways []int
	if !pr.SkipCurves {
		ways = pr.curveWays()
	}

	runSpan := pr.Telemetry.StartSpan(telemetry.PhaseProfileRun, 0)
	var curveSpan telemetry.Span
	if !pr.SkipCurves {
		curveSpan = pr.Telemetry.StartSpan(telemetry.PhaseProfileCurves, 0)
	}
	main, curve, err := pr.execute(ctx, b, seed, ways)
	if err != nil {
		return nil, err
	}

	p := &Profile{
		Benchmark: b.Name,
		Machine:   pr.Machine.Name,
		Samples:   make(map[MetricID][]float64, len(ScalarMetrics)),
		Curve:     curve,
	}

	// Main lane: full cache, Windows samples after warmup. Counter metrics
	// come from busy-cycle windows (hardware sampling semantics); CPU
	// utilization and memory bandwidth come from wall-clock windows, since
	// they are defined over elapsed time.
	var runAttrs map[string]float64
	if pr.Telemetry.Enabled() {
		runAttrs = sim.SummarizeWindows(main.samples).Attrs()
		runAttrs["requests"] = float64(main.requests)
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
	var curveAttrs map[string]float64
	if pr.Telemetry.Enabled() {
		curveAttrs = map[string]float64{
			"points":          float64(len(p.Curve)),
			"windows_per_pt":  float64(pr.CurveWindows),
			"full_cache_ways": float64(pr.Machine.LLCWays()),
			"bytes_per_way":   float64(pr.Machine.LLC().Sets() * trace.LineSize),
		}
	}
	curveSpan.End(curveAttrs)
	return p, nil
}

// curvePoint aggregates the windows one allocation measured, in way order.
func (pr *Profiler) curvePoint(ways int, samples []sim.WindowSample) CurvePoint {
	var instrs, llcMisses, busy float64
	for _, s := range samples {
		k := float64(s.Instructions)
		instrs += k
		llcMisses += s.LLCMPKI * k / 1000
		if s.IPC > 0 {
			busy += k / s.IPC
		}
	}
	pt := CurvePoint{
		Ways:      ways,
		SizeBytes: pr.Machine.LLC().Sets() * trace.LineSize * ways,
	}
	if instrs > 0 {
		pt.LLCMPKI = llcMisses / instrs * 1000
	}
	if busy > 0 {
		pt.IPC = instrs / busy
	}
	return pt
}

// execute is the profile's one pass: one server on one machine, whose main
// lane measures at the full cache and which carries one lane per curve
// allocation in ways (the full-way one is the main lane), from Reset
// through the dataset warm, the warmup windows and the measured windows.
// It holds one Budget token throughout (when one is shared), and the
// machine comes from the free list of the profiler's machine configuration
// and goes back to it. It returns the main lane's measurements and the
// curve, in ways' order.
func (pr *Profiler) execute(ctx context.Context, b workload.Benchmark, seed uint64, ways []int) (runResult, []CurvePoint, error) {
	slot := 0
	if pr.Budget != nil {
		wait := pr.Telemetry.StartSpan(telemetry.PhaseBudgetWait, 0)
		slot = pr.Budget.Acquire()
		wait.End(pr.slotAttrs(slot))
		defer pr.Budget.Release(slot)
	}
	var ph *runPhases
	if pr.Telemetry.Enabled() {
		ph = new(runPhases)
	}
	span := pr.Telemetry.StartSpan(telemetry.PhaseSimRun, 0)
	ph.lap(phaseBuild)
	free := freeListFor(pr.Machine)
	m := free.machine(pr.WindowCycles)
	defer free.putMachine(m)
	m.ResetWindows(pr.WindowCycles)

	var main runResult
	var curve []CurvePoint
	if len(ways) > 0 {
		curve = make([]CurvePoint, len(ways))
	}
	var srv workload.Server
	lanes := make([]workload.Lane, 0, 1+len(ways))
	lanes = append(lanes, workload.Lane{Lane: &m.Lane, Windows: pr.Windows, Stop: func(r workload.RunResult) {
		main = runResult{
			samples:  append([]sim.WindowSample(nil), m.Samples()...),
			wall:     append([]sim.WallSample(nil), m.WallSamples()...),
			requests: r.Requests,
		}
		// Computing a ratio scans the whole resident dataset.
		if c, ok := srv.(workload.Compressible); ok {
			main.ratio = c.CompressionRatio()
		}
	}})
	for i, w := range ways {
		ln := m.AddLane(w)
		lanes = append(lanes, workload.Lane{Lane: ln, Windows: pr.CurveWindows, Stop: func(workload.RunResult) {
			curve[i] = pr.curvePoint(w, ln.Samples())
		}})
	}
	for _, l := range lanes {
		l.Lane.ReserveSamples(l.Windows + 1)
	}
	srv = b.NewServer(trace.NewCodeLayout(), stats.HashSeed(seed, "dataset"))
	ph.lap(phaseBuild)
	if w, ok := srv.(workload.Warmable); ok {
		m.Warm(w)
		ph.lap(phaseWarm)
	}
	pass := workload.Pass{
		Lanes:         lanes,
		WarmupWindows: pr.WarmupWindows,
		Seed:          stats.HashSeed(seed, "measure-0"),
		MaxRequests:   pr.MaxRequestsPerRun,
	}
	err := pass.Run(ctx, m, b, srv)
	ph.lap(phaseMeasure)
	attrs := pr.slotAttrs(slot)
	if ph != nil {
		attrs[telemetry.AttrLanes] = float64(len(lanes))
		attrs[telemetry.AttrBuildNS] = float64(ph.ns[phaseBuild])
		attrs[telemetry.AttrWarmNS] = float64(ph.ns[phaseWarm])
		attrs[telemetry.AttrMeasureNS] = float64(ph.ns[phaseMeasure])
	}
	span.End(attrs)
	return main, curve, err
}

// slotAttrs builds the attribute map of a profile's sim and budget spans —
// the budget slot it ran in, its worker track on a timeline — or nil when
// telemetry is disabled so the hot path does not allocate.
func (pr *Profiler) slotAttrs(slot int) map[string]float64 {
	if !pr.Telemetry.Enabled() {
		return nil
	}
	return map[string]float64{telemetry.AttrWorker: float64(slot)}
}

// The sub-phases of one pass.
const (
	phaseBuild = iota
	phaseWarm
	phaseMeasure
)

// runPhases is where one pass's time went. execute fills it when telemetry
// is on; a nil *runPhases reads no clock.
type runPhases struct {
	last time.Time
	ns   [3]time.Duration
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
