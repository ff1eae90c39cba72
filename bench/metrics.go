package main

// metricDef names one metric of the ledger. The two tables below are the
// Go side of BENCHMARK.json (a test keeps them equal) and the vocabulary a
// later performance issue cites: one end-to-end metric on one workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative worsening that counts as a regression
	// (end-to-end metrics only).
	Bound float64
	// Exact marks a count or value that repeats bit for bit for a commit
	// and seed, so two result files compare it exactly.
	Exact bool
}

// endToEnd is what a user running a search pays. Measured with tracing off.
// The timing bounds are as wide as the contract allows because the
// reference host is a shared two-core VM that runs everything 15–40 %
// slower for minutes at a time. Allocation repeats to 0.1 %.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "search_wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_eval", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer is the traced pass and the probe phase; the layer is the module
// name before the dot. README.md says which end-to-end metric each should
// move, and on which workload.
var perLayer = []metricDef{
	{Name: "search.wall_ms", Unit: "ms", Better: "lower"},
	{Name: "search.eval_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "search.eval_ms_p75", Unit: "ms", Better: "lower"},
	{Name: "search.best_error", Unit: "emd_sum", Better: "lower", Exact: true},
	{Name: "datagen.benchmark_ms", Unit: "ms", Better: "lower"},
	{Name: "apps.build_ms", Unit: "ms", Better: "lower"},
	{Name: "apps.build_calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "apps.build_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "apps.handle_ms", Unit: "ms", Better: "lower"},
	{Name: "apps.requests", Unit: "count", Better: "lower", Exact: true},
	{Name: "apps.emit_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.warm_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.bytes", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.replay_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.replay_ns_per_event_1way", Unit: "ns", Better: "lower"},
	{Name: "sim.new_machine_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.reset_us", Unit: "us", Better: "lower"},
	{Name: "sim.mcycles_per_host_s", Unit: "Mcycles/s", Better: "higher"},
	{Name: "workload.run_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.driver_ms", Unit: "ms", Better: "lower"},
	{Name: "profile.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "profile.sweep_share", Unit: "fraction", Better: "lower"},
	{Name: "profile.runs", Unit: "count", Better: "lower", Exact: true},
	{Name: "profile.self_ms", Unit: "ms", Better: "lower"},
	{Name: "profile.pool_speedup", Unit: "ratio", Better: "higher"},
	{Name: "opt.propose_ms", Unit: "ms", Better: "lower"},
	{Name: "opt.propose_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "opt.propose_ms_max", Unit: "ms", Better: "lower"},
	{Name: "opt.observe_ms", Unit: "ms", Better: "lower"},
	{Name: "opt.gp_fit_ms", Unit: "ms", Better: "lower"},
	{Name: "opt.acq_ms", Unit: "ms", Better: "lower"},
	{Name: "opt.cholesky_rebuilds", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.objective_ms", Unit: "ms", Better: "lower"},
	{Name: "core.objective_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.cache_get_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.cache_hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.self_ms", Unit: "ms", Better: "lower"},
	{Name: "telemetry.on_over_off", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
	{Name: "trace.unexplained_frac", Unit: "fraction", Better: "lower"},
}
