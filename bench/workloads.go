package main

import (
	"fmt"

	"datamime"
	"datamime/internal/apps/kvstore"
	"datamime/internal/core"
	"datamime/internal/datagen"
	"datamime/internal/harness"
	"datamime/internal/opt"
	"datamime/internal/profile"
	"datamime/internal/sim"
	"datamime/internal/stats"
	"datamime/internal/trace"
	"datamime/internal/workload"
)

// searchSeed is SearchConfig.Seed and the optimizer seed of every workload:
// the searches are fixed-seed. What -seed generates is the search's input,
// the target profile (the hidden target's dataset, arrivals and requests).
// Were the search seed to follow -seed too, each seed would evaluate other
// candidates, and since one candidate costs 0.2 s to 6 s depending on its
// parameters, wall time would say more about the seed than about the code.
const searchSeed = 1

// workloadDef is one benchmark workload: a search shape over a target.
type workloadDef struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why        string
	iterations int
	// design is the size of the optimizer's initial Latin-hypercube design;
	// 0 is the default, 2 per dimension. The design depends on the search
	// seed alone; the proposals after it also depend on the target.
	design int
	// parallel is both SearchConfig.Parallel and ProfileWorkers; 1 is the
	// paper's serial loop.
	parallel int
	// procs caps GOMAXPROCS below the benchmark's two; 0 leaves it.
	procs int
	// minRepeats is how many timed searches a run makes at least, where the
	// run's time allows more than one: the host slows down by 10–40 % for
	// tens of seconds at a time, so the repeats have to span more than
	// -seconds for every part of the search to be seen undisturbed once.
	minRepeats int
	// cached runs the search once cold during set-up so that every timed
	// repeat is served from the evaluation cache.
	cached bool
	// scenario builds the target, generator and profiler.
	scenario func() (scenario, error)
}

// scenario is what a workload searches: a hidden target, the generator
// whose space is searched, and the profiler budgets.
type scenario struct {
	target   workload.Benchmark
	gen      datagen.Generator
	profiler *profile.Profiler
}

var workloads = []workloadDef{
	{
		name:       "search-kv",
		why:        "mem-fb on the serial loop: wall is dataset build, warm and the sim kernel, 7 simulator runs per evaluation",
		iterations: 16, parallel: 1,
		scenario: func() (scenario, error) { return harnessScenario("mem-fb") },
	},
	{
		name:       "search-kv-par2",
		why:        "same target with Parallel=2 and a 2-worker sweep pool under one budget: the pooled, batched path",
		iterations: 16, parallel: 2, minRepeats: 2,
		scenario: func() (scenario, error) { return harnessScenario("mem-fb") },
	},
	{
		name: "search-dnn",
		why:  "dnn: wall is apps/nn Handle doing float math and the kernel sees few events; bypasses dataset and kernel work",
		// On the DNN space the proposals after a 12-point design cost 1.2 s to
		// 6.3 s each depending on the target, so a whole 16-point design keeps
		// the work the same on every seed; the optimizer is < 1 % of wall here.
		iterations: 16, design: 16, parallel: 1,
		scenario: func() (scenario, error) { return harnessScenario("dnn") },
	},
	{
		name:       "search-cached",
		why:        "200-iteration resubmit served from the evaluation cache, on one proc: zero simulation, wall is GP fit and loop",
		iterations: 200, parallel: 1, minRepeats: 10, cached: true,
		// With nothing to simulate, a second proc only serves the optimizer's
		// fork-join candidate scoring and the concurrent collector, a few
		// milliseconds at a time, 200 times a search: on a shared two-vCPU
		// host that times the scheduler (the median wall of ten runs spread
		// by 0.34 on two procs, 0.13 on one). search-kv-par2 uses both.
		procs:    1,
		scenario: cachedScenario,
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// harnessScenario is a paper workload under the harness.Quick profiler
// budgets on Broadwell: 1 main run + 6 way-curve points per evaluation.
func harnessScenario(name string) (scenario, error) {
	w, err := harness.WorkloadByName(name)
	if err != nil {
		return scenario{}, err
	}
	st := harness.Quick()
	p := profile.New(sim.Broadwell())
	p.WindowCycles = st.WindowCycles
	p.Windows = st.Windows
	p.WarmupWindows = st.WarmupWindows
	p.CurveWindows = st.CurveWindows
	p.CurvePoints = st.CurvePoints
	return scenario{target: w.Target, gen: w.Generator, profiler: p}, nil
}

// cachedKeys sizes the search-cached datasets: small enough that the cold
// fill of 200 evaluations fits in set-up.
const cachedKeys = 4000

// cachedScenario is the Table III memcached space over a 4000-key store,
// against the mem-fb dataset at the same size.
func cachedScenario() (scenario, error) {
	space := datagen.Memcached().Space
	gen := datagen.Generator{
		Name:  "memcached-4k",
		Space: space,
		Benchmark: func(x []float64) workload.Benchmark {
			cfg := kvstore.Config{
				NumKeys:   cachedKeys,
				KeySize:   stats.Normal{Mu: x[2], Sigma: x[3], Min: 4},
				ValueSize: stats.Normal{Mu: x[4], Sigma: x[5], Min: 1},
				GetRatio:  x[1],
			}
			return workload.Benchmark{
				Name: fmt.Sprintf("memcached-4k[%s]", space.Values(x)),
				QPS:  x[0],
				NewServer: func(l *trace.CodeLayout, seed uint64) workload.Server {
					return kvstore.New(cfg, l, seed)
				},
			}
		},
	}
	target := kvstore.FacebookTarget()
	target.NumKeys = cachedKeys
	p := profile.New(sim.Broadwell())
	p.WindowCycles = 100_000
	p.Windows = 12
	p.WarmupWindows = 2
	p.CurveWindows = 2
	p.CurvePoints = 3
	return scenario{
		target: workload.Benchmark{
			Name: "mem-fb-4k",
			QPS:  kvstore.FacebookQPS,
			NewServer: func(l *trace.CodeLayout, seed uint64) workload.Server {
				return kvstore.New(target, l, seed)
			},
		},
		gen:      gen,
		profiler: p,
	}, nil
}

// prepared is a workload after set-up: the target has been profiled and the
// objective built. The timed searches start from here.
type prepared struct {
	scenario
	def       workloadDef
	objective core.ProfileObjective
	cache     core.EvalCache
}

// prepare is the set-up a user pays before a search can start: profile the
// target and build the objective. The cold cache fill of search-cached is
// timed separately by the caller.
func prepare(w workloadDef, seed uint64) (*prepared, error) {
	sc, err := w.scenario()
	if err != nil {
		return nil, err
	}
	target, err := sc.profiler.Profile(sc.target, seed)
	if err != nil {
		return nil, fmt.Errorf("profiling target %s: %w", sc.target.Name, err)
	}
	p := &prepared{
		scenario:  sc,
		def:       w,
		objective: core.NewProfileObjective(target, core.NewErrorModel()),
	}
	if w.cached {
		p.cache = datamime.NewEvalCache(4096)
	}
	return p, nil
}

// config is the search every pass of the workload runs. The optimizer is
// built fresh because it accumulates the observation history.
func (p *prepared) config() (core.SearchConfig, *opt.BayesOpt) {
	bo := opt.NewBayesOpt(p.gen.Space, opt.BayesOptConfig{Seed: searchSeed, InitPoints: p.def.design})
	return core.SearchConfig{
		Generator:      p.gen,
		Objective:      p.objective,
		Profiler:       p.profiler,
		Iterations:     p.def.iterations,
		Optimizer:      bo,
		Seed:           searchSeed,
		Parallel:       p.def.parallel,
		ProfileWorkers: p.def.parallel,
		Cache:          p.cache,
	}, bo
}
