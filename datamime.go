// Package datamime is a full reproduction of Datamime (Lee & Sanchez,
// MICRO 2022): a profile-guided system that generates representative
// benchmarks by automatically synthesizing datasets.
//
// Datamime takes three inputs — performance profiles of a target workload,
// a program (the same as, or similar to, the target's), and a parameterized
// dataset generator — and searches the generator's parameter space with
// Bayesian optimization so that the program running the synthesized dataset
// reproduces the target's performance-profile *distributions* (Earth
// Mover's Distance over the ten Table I metrics, including cache-
// sensitivity curves).
//
// Because this reproduction runs without hardware counters or production
// data, workloads execute on a deterministic trace-driven microarchitecture
// simulator with three machine models (Broadwell, Zen 2, Silvermont) and
// application substrates implemented in this module (an in-memory KV store,
// an OLTP database, a search engine, a CNN inference engine). See DESIGN.md
// for the substitution inventory.
//
// The typical flow:
//
//	target := datamime.MemFB()                    // a hidden target workload
//	prof, _ := datamime.NewProfiler(datamime.Broadwell()).Profile(target, 1)
//	gen := datamime.MemcachedGenerator()          // Table III parameter space
//	res, _ := datamime.Search(datamime.SearchConfig{
//	    Generator:  gen,
//	    Objective:  datamime.NewProfileObjective(prof, datamime.NewErrorModel()),
//	    Profiler:   datamime.NewProfiler(datamime.Broadwell()),
//	    Iterations: 200,
//	})
//	bench := gen.Benchmark(res.BestParams)        // the representative benchmark
package datamime

import (
	"context"
	"io"

	"datamime/internal/backend"
	"datamime/internal/cloning"
	"datamime/internal/core"
	"datamime/internal/datagen"
	"datamime/internal/harness"
	"datamime/internal/opt"
	"datamime/internal/profile"
	"datamime/internal/service"
	"datamime/internal/sim"
	"datamime/internal/telemetry"
	"datamime/internal/workload"
)

// Core types, re-exported from the implementation packages.
type (
	// Profile is a complete performance profile: per-metric sample
	// distributions plus cache-sensitivity curves.
	Profile = profile.Profile
	// MetricID names one profiled metric.
	MetricID = profile.MetricID
	// CurvePoint is one cache-allocation measurement.
	CurvePoint = profile.CurvePoint
	// Profiler collects profiles on a simulated machine.
	Profiler = profile.Profiler
	// ProfileSpec says what a profile measures: the budgets Profiler and
	// Settings both embed (profiler.Spec = settings.Spec).
	ProfileSpec = profile.Spec
	// Benchmark couples a server factory with its offered load.
	Benchmark = workload.Benchmark
	// Server is a request-driven application.
	Server = workload.Server
	// RunResult summarizes one driver run.
	RunResult = workload.RunResult
	// Generator is a dataset generator: a parameter space plus a factory.
	Generator = datagen.Generator
	// Param is one bounded generator parameter.
	Param = opt.Param
	// Space is a searchable parameter domain.
	Space = opt.Space
	// Optimizer proposes parameters and learns from observations.
	Optimizer = opt.Optimizer
	// SearchConfig drives one Datamime search.
	SearchConfig = core.SearchConfig
	// Result is a search outcome.
	Result = core.Result
	// IterationRecord is one step of a search trace.
	IterationRecord = core.IterationRecord
	// ErrorModel is the Eq. 1 profile error model.
	ErrorModel = core.ErrorModel
	// Component names one of the ten error components.
	Component = core.Component
	// Objective scores candidate profiles.
	Objective = core.Objective
	// ProfileObjective matches a full target profile.
	ProfileObjective = core.ProfileObjective
	// MetricObjective targets a single metric value.
	MetricObjective = core.MetricObjective
	// MachineConfig describes a simulated evaluation platform.
	MachineConfig = sim.MachineConfig
	// Workload is an evaluation target bundle (target + public dataset +
	// generator).
	Workload = harness.Workload
	// Runner executes and caches evaluation experiments.
	Runner = harness.Runner
	// Settings controls experiment budgets.
	Settings = harness.Settings
	// EvalCache is a content-addressed store of measured profiles shared
	// across searches (see NewEvalCache).
	EvalCache = core.EvalCache
	// Evaluator replaces where cache-missing candidate evaluations run
	// (SearchConfig.Evaluator) — e.g. internal/backend's dispatcher for
	// fleet execution. Results are bit-identical wherever they run.
	Evaluator = core.Evaluator
	// EvalEvent describes one finished iteration to SearchConfig.OnEval;
	// the events of an earlier run's leading iterations resume it
	// (SearchConfig.Resume).
	EvalEvent = core.EvalEvent
	// EvalErrorPolicy selects how a search reacts to profiling failures.
	EvalErrorPolicy = core.EvalErrorPolicy
	// Service is the datamimed job scheduler (see NewService).
	Service = service.Server
	// ServiceConfig configures a Service.
	ServiceConfig = service.Config
	// JobSpec describes one search job submitted to a Service.
	JobSpec = service.JobSpec
	// ProfilingSpec overrides profiler budgets per job.
	ProfilingSpec = service.ProfilingSpec
	// JobStatus is the JSON view of a Service job.
	JobStatus = service.JobStatus
	// JobResult summarizes a finished Service job.
	JobResult = service.JobResult
	// TelemetryRecorder collects phase spans and eval events from a search
	// (SearchConfig.Telemetry, Profiler.Telemetry). A nil recorder is valid
	// and disabled at the cost of one nil check per phase.
	TelemetryRecorder = telemetry.Recorder
	// TelemetryOptions configures a TelemetryRecorder (see NewTelemetry).
	TelemetryOptions = telemetry.Options
	// TelemetryEvent is one telemetry record: a span, an evaluation, or a
	// log line; events marshal one-per-line into JSONL run artifacts.
	TelemetryEvent = telemetry.Event
)

// Evaluation-failure policies (SearchConfig.OnEvalError).
const (
	// EvalFailFast aborts the search on the first profiling error.
	EvalFailFast = core.EvalFailFast
	// EvalRetrySkip retries once with a perturbed seed, then skips and
	// records the iteration.
	EvalRetrySkip = core.EvalRetrySkip
)

// Profiled metric identifiers (Table I).
const (
	MetricIPC     = profile.MetricIPC
	MetricL1D     = profile.MetricL1D
	MetricL2      = profile.MetricL2
	MetricLLC     = profile.MetricLLC
	MetricICache  = profile.MetricICache
	MetricITLB    = profile.MetricITLB
	MetricDTLB    = profile.MetricDTLB
	MetricBranch  = profile.MetricBranch
	MetricCPUUtil = profile.MetricCPUUtil
	MetricMemBW   = profile.MetricMemBW
	// MetricCompress is the optional snapshot-compression-ratio metric
	// (the §III-D extension).
	MetricCompress = profile.MetricCompress
)

// CompCompression is the optional error-model component matching snapshot
// compression ratios; weight it in with ErrorModel.WithWeight.
const CompCompression = core.CompCompression

// DistanceKind selects the distribution-distance statistic of the error
// model: DistEMD (the paper's choice) or DistKS (the Kolmogorov–Smirnov
// alternative it cites).
type DistanceKind = core.DistanceKind

// Distribution-distance statistics.
const (
	DistEMD = core.DistEMD
	DistKS  = core.DistKS
)

// Machine configurations mirroring Table II.
var (
	Broadwell  = sim.Broadwell
	Zen2       = sim.Zen2
	Silvermont = sim.Silvermont
	Machines   = sim.Machines
)

// NewProfiler returns a profiler with the evaluation defaults for the
// given machine.
func NewProfiler(m MachineConfig) *Profiler { return profile.New(m) }

// DecodeProfile parses a profile serialized with Profile.EncodeJSON — the
// artifact a service operator shares with a benchmark designer in the
// paper's workflow (profiles reveal counters, never data).
func DecodeProfile(data []byte) (*Profile, error) { return profile.DecodeJSON(data) }

// Search runs Datamime's optimization loop (Eq. 2).
func Search(cfg SearchConfig) (*Result, error) { return core.Search(cfg) }

// SearchContext is Search with cancellation: ctx is checked before each
// proposal, observation and evaluation and between profiling phases, so
// canceling stops the search within roughly one evaluation, returning the
// partial result alongside ctx's error once the evaluations in flight have
// stopped. SearchConfig.Parallel keeps at most that many evaluations in
// flight; design points do not wait for a batch. The events its OnEval saw
// resume it later: pass them as SearchConfig.Resume to a search of the same
// configuration.
func SearchContext(ctx context.Context, cfg SearchConfig) (*Result, error) {
	return core.SearchContext(ctx, cfg)
}

// NewEvalCache builds the bounded LRU evaluation cache datamimed shares
// across jobs; plug it into SearchConfig.Cache so repeated or warm-started
// searches skip re-simulation (<= 0 selects the default capacity).
func NewEvalCache(capacity int) EvalCache { return backend.NewLRU(capacity) }

// NewService builds the datamimed benchmark-generation service: a bounded
// worker pool running search jobs with a shared evaluation cache and
// per-job checkpoint/resume. Serve its Handler over HTTP (cmd/datamimed)
// or drive it in-process via Submit.
func NewService(cfg ServiceConfig) (*Service, error) { return service.New(cfg) }

// NewTelemetry builds a telemetry recorder for SearchConfig.Telemetry. Events
// go to TelemetryOptions.OnEvent (e.g. a JSONL artifact sink); the zero
// options give a recorder that only counts them.
func NewTelemetry(opts TelemetryOptions) *TelemetryRecorder { return telemetry.New(opts) }

// NewErrorModel returns the default equal-weight Eq. 1 error model.
func NewErrorModel() *ErrorModel { return core.NewErrorModel() }

// NewProfileObjective builds a profile-matching objective with the target's
// sample distributions pre-sorted, so a long search sorts the fixed target
// side once instead of once per evaluation. The literal
// ProfileObjective{Target: t, Model: m} form remains supported and produces
// bit-identical errors.
func NewProfileObjective(target *Profile, model *ErrorModel) ProfileObjective {
	return core.NewProfileObjective(target, model)
}

// NewBayesOpt builds the paper's Bayesian optimizer over a space.
func NewBayesOpt(space *Space, seed uint64) Optimizer {
	return opt.NewBayesOpt(space, opt.BayesOptConfig{Seed: seed})
}

// NewRandomSearch builds the random-search baseline optimizer.
func NewRandomSearch(space *Space, seed uint64) Optimizer {
	return opt.NewRandomSearch(space, seed)
}

// NewSpace builds a validated parameter space.
func NewSpace(params ...Param) (*Space, error) { return opt.NewSpace(params...) }

// Dataset generators (Table III).
var (
	MemcachedGenerator             = datagen.Memcached
	MemcachedCompressibleGenerator = datagen.MemcachedCompressible
	SiloGenerator                  = datagen.Silo
	XapianGenerator                = datagen.Xapian
	DNNGenerator                   = datagen.DNN
	Generators                     = datagen.All
	GeneratorByName                = datagen.ByName
)

// Evaluation workloads and case studies.
var (
	Workloads          = harness.Workloads
	CaseStudyWorkloads = harness.CaseStudyWorkloads
	WorkloadByName     = harness.WorkloadByName
)

// Experiment settings presets.
var (
	FullSettings  = harness.Full
	QuickSettings = harness.Quick
)

// NewRunner builds an experiment runner.
func NewRunner(st Settings) *Runner { return harness.NewRunner(st) }

// CloneBaseline generates a PerfProx-style black-box clone benchmark from a
// target profile (the comparison baseline of the paper).
func CloneBaseline(target *Profile, name string) Benchmark {
	return cloning.Clone(target, name)
}

// MemFB returns the mem-fb target benchmark (memcached with a Facebook-
// production-like dataset) — the running example of the paper.
func MemFB() Benchmark {
	w, err := harness.WorkloadByName("mem-fb")
	if err != nil {
		panic(err) // static registry; cannot fail
	}
	return w.Target
}

// RunExperiment regenerates one paper table, figure, ablation or extension
// into out; id is one of ExperimentIDs.
func RunExperiment(r *Runner, id string, out io.Writer) error {
	return harness.RunExperiment(r, id, out)
}

// ExperimentIDs lists every regenerable table and figure id.
func ExperimentIDs() []string { return harness.ExperimentIDs() }
