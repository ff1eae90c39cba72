package datamime

import (
	"datamime/internal/sim"
	"datamime/internal/stats"
	"datamime/internal/trace"
	"datamime/internal/workload"
)

// This file re-exports the extension surface: everything needed to bring a
// *new* application and dataset generator to Datamime, following the
// systematic parameterization procedure of §III-B — implement Server,
// emit execution events into a Collector, define a parameter Space, and
// wrap dataset construction in a Generator.

type (
	// Collector consumes execution events (data accesses, instruction
	// blocks, branches); the simulated machine implements it.
	Collector = trace.Collector
	// CodeRegion is a contiguous stretch of simulated instruction memory.
	CodeRegion = trace.CodeRegion
	// CodeLayout allocates code regions in a simulated text segment.
	CodeLayout = trace.CodeLayout
	// RNG is a seeded deterministic random number generator.
	RNG = stats.RNG
	// Distribution is a one-dimensional random-variate source.
	Distribution = stats.Distribution
	// Normal is a truncated Gaussian distribution.
	Normal = stats.Normal
	// LogNormal is a log-normal distribution.
	LogNormal = stats.LogNormal
	// GPareto is a generalized Pareto distribution.
	GPareto = stats.GPareto
	// Zipf samples Zipf-distributed ranks.
	Zipf = stats.Zipf
	// Machine is a simulated core plus memory hierarchy; it implements
	// Collector.
	Machine = sim.Machine
	// WindowSample is one performance-counter sampling window.
	WindowSample = sim.WindowSample
)

// NewCodeLayout returns an empty simulated text segment.
func NewCodeLayout() *CodeLayout { return trace.NewCodeLayout() }

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed uint64) *RNG { return stats.NewRNG(seed) }

// NewZipf builds a Zipf sampler over [0, n) with skew s.
func NewZipf(n int, s float64) *Zipf { return stats.NewZipf(n, s) }

// NewMachine builds a simulated machine with the given counter-window
// length in cycles.
func NewMachine(cfg MachineConfig, windowCycles float64) *Machine {
	return sim.NewMachine(cfg, windowCycles)
}

// Run drives a benchmark on a machine until the requested number of
// counter windows close; see the workload package for semantics.
func Run(m *Machine, b Benchmark, srv Server, windows int, seed uint64, maxRequests int) RunResult {
	return workload.Run(m, b, srv, windows, seed, maxRequests)
}

// Optional server capabilities: implement these alongside Server to opt
// into richer profiling.
//
// A Benchmark's NewServer is called once per profile — concurrently when
// candidates are profiled in parallel — and the one server it returns
// serves every cache allocation the profile measures.
type (
	// Warmable servers pre-touch their dataset before measurement, so
	// profiles reflect a long-running service's steady state. The warm is
	// the first phase of the profile's one pass (see workload.Warmable).
	Warmable = workload.Warmable
	// Compressible servers report their snapshot compression ratio (the
	// §III-D extension metric).
	Compressible = workload.Compressible
	// Sizer servers report request/response sizes for the networked
	// configuration's kernel-stack model.
	Sizer = workload.Sizer
)

// EMD is the Earth Mover's Distance between two 1-D sample sets.
func EMD(a, b []float64) float64 { return stats.EMD(a, b) }

// NormalizedEMD is the EMD over axis-normalized CDFs — the paper's
// per-metric error (Fig. 10's units).
func NormalizedEMD(a, b []float64) float64 { return stats.NormalizedEMD(a, b) }
