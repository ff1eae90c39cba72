package harness

import (
	"fmt"
	"io"
	"sync"

	"datamime/internal/cloning"
	"datamime/internal/core"
	"datamime/internal/profile"
	"datamime/internal/sim"
	"datamime/internal/workload"
)

// Settings control evaluation cost. Full mirrors the paper (200 search
// iterations, dense profiles); Quick keeps every experiment's structure but
// shrinks budgets so the whole evaluation regenerates in minutes.
type Settings struct {
	// Iterations is the search budget per workload (the paper uses 200).
	Iterations int
	// Spec is what every profile of the evaluation measures; a profiler
	// takes it whole (p.Spec = st.Spec).
	profile.Spec
	// RangePoints is the sweep resolution of Fig. 11 (paper: 15).
	RangePoints int
	// RangeIterations is the per-point search budget of Fig. 11.
	RangeIterations int
	// Parallel keeps at most this many search candidates in flight
	// (parallel Bayesian optimization, core.SearchConfig.Parallel; 0/1 =
	// the paper's serial loop).
	Parallel int
	// Seed derives all stochastic streams.
	Seed uint64
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// Full returns the paper-fidelity settings.
func Full() Settings {
	return Settings{
		Iterations: 200,
		Spec: profile.Spec{
			WindowCycles:  400_000,
			Windows:       36,
			WarmupWindows: 5,
			CurveWindows:  6,
			CurvePoints:   12,
		},
		RangePoints:     15,
		RangeIterations: 40,
		Parallel:        4,
		Seed:            1,
	}
}

// Quick returns reduced-budget settings for benches and smoke runs: same
// experiment structure, smaller numbers.
func Quick() Settings {
	return Settings{
		Iterations: 36,
		Spec: profile.Spec{
			WindowCycles:  200_000,
			Windows:       16,
			WarmupWindows: 3,
			CurveWindows:  3,
			CurvePoints:   6,
		},
		RangePoints:     5,
		RangeIterations: 10,
		Parallel:        4,
		Seed:            1,
	}
}

// Runner executes schemes and caches results, so figures that share
// expensive artifacts (target profiles, searches) reuse them. All methods
// are safe for concurrent use; independent workloads are evaluated in
// parallel by Prepare.
type Runner struct {
	st Settings

	mu       sync.Mutex
	profiles map[string]*profile.Profile
	searches map[string]*core.Result
	locks    map[string]*sync.Mutex
}

// NewRunner builds a runner.
func NewRunner(st Settings) *Runner {
	return &Runner{
		st:       st,
		profiles: make(map[string]*profile.Profile),
		searches: make(map[string]*core.Result),
		locks:    make(map[string]*sync.Mutex),
	}
}

// Settings returns the runner's settings.
func (r *Runner) Settings() Settings { return r.st }

// profiler builds a profiler for the given machine from the settings.
func (r *Runner) profiler(m sim.MachineConfig) *profile.Profiler {
	return &profile.Profiler{Machine: m, Spec: r.st.Spec}
}

// keyLock returns a per-key mutex so expensive computations run once even
// under concurrent callers.
func (r *Runner) keyLock(key string) *sync.Mutex {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.locks[key]
	if !ok {
		l = &sync.Mutex{}
		r.locks[key] = l
	}
	return l
}

// cachedProfile memoizes a profile computation.
func (r *Runner) cachedProfile(key string, compute func() (*profile.Profile, error)) (*profile.Profile, error) {
	lock := r.keyLock(key)
	lock.Lock()
	defer lock.Unlock()
	r.mu.Lock()
	if p, ok := r.profiles[key]; ok {
		r.mu.Unlock()
		return p, nil
	}
	r.mu.Unlock()
	p, err := compute()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.profiles[key] = p
	r.mu.Unlock()
	return p, nil
}

// logf writes a progress line when logging is enabled.
func (r *Runner) logf(format string, args ...interface{}) {
	if r.st.Log != nil {
		fmt.Fprintf(r.st.Log, format+"\n", args...)
	}
}

// BenchmarkProfile profiles an arbitrary benchmark on a machine, cached.
func (r *Runner) BenchmarkProfile(b workload.Benchmark, m sim.MachineConfig) (*profile.Profile, error) {
	key := fmt.Sprintf("bench/%s/%s", b.Name, m.Name)
	return r.cachedProfile(key, func() (*profile.Profile, error) {
		r.logf("profiling %s on %s", b.Name, m.Name)
		return r.profiler(m).Profile(b, r.st.Seed)
	})
}

// TargetProfile profiles a workload's hidden target.
func (r *Runner) TargetProfile(w Workload, m sim.MachineConfig) (*profile.Profile, error) {
	return r.BenchmarkProfile(w.Target, m)
}

// PublicProfile profiles the alternative public dataset.
func (r *Runner) PublicProfile(w Workload, m sim.MachineConfig) (*profile.Profile, error) {
	if w.Public == nil {
		return nil, fmt.Errorf("harness: workload %s has no public dataset", w.Name)
	}
	return r.BenchmarkProfile(*w.Public, m)
}

// CloneBenchmark builds the PerfProx-style proxy for a workload. The clone
// is generated from the target's profile on the generation machine
// (Broadwell), like all generated benchmarks in the paper.
func (r *Runner) CloneBenchmark(w Workload) (workload.Benchmark, error) {
	target, err := r.TargetProfile(w, sim.Broadwell())
	if err != nil {
		return workload.Benchmark{}, err
	}
	return cloning.Clone(target, "perfprox-"+w.Name), nil
}

// CloneProfile profiles the PerfProx-style proxy on a machine.
func (r *Runner) CloneProfile(w Workload, m sim.MachineConfig) (*profile.Profile, error) {
	b, err := r.CloneBenchmark(w)
	if err != nil {
		return nil, err
	}
	return r.BenchmarkProfile(b, m)
}

// Search runs (or returns the cached) Datamime search for a workload, with
// an optional error-model override (nil uses the default equal weights).
func (r *Runner) Search(w Workload, model *core.ErrorModel) (*core.Result, error) {
	modelKey := "default"
	if model != nil {
		modelKey = fmt.Sprintf("%v", model.Weights)
	}
	key := fmt.Sprintf("search/%s/%s", w.Name, modelKey)
	lock := r.keyLock(key)
	lock.Lock()
	defer lock.Unlock()
	r.mu.Lock()
	if res, ok := r.searches[key]; ok {
		r.mu.Unlock()
		return res, nil
	}
	r.mu.Unlock()

	target, err := r.TargetProfile(w, sim.Broadwell())
	if err != nil {
		return nil, err
	}
	if model == nil {
		model = core.NewErrorModel()
	}
	r.logf("searching %s (%d iterations)", w.Name, r.st.Iterations)
	res, err := core.Search(core.SearchConfig{
		Generator:  w.Generator,
		Objective:  core.NewProfileObjective(target, model),
		Profiler:   r.profiler(sim.Broadwell()),
		Iterations: r.st.Iterations,
		Seed:       r.st.Seed,
		Parallel:   r.st.Parallel,
	})
	if err != nil {
		return nil, err
	}
	r.logf("search %s done: best error %.4f (%s)", w.Name, res.BestError, w.Generator.Space.Values(res.BestParams))
	r.mu.Lock()
	r.searches[key] = res
	r.mu.Unlock()
	return res, nil
}

// DatamimeBenchmark returns the benchmark built from a workload's best
// found dataset parameters.
func (r *Runner) DatamimeBenchmark(w Workload) (workload.Benchmark, error) {
	res, err := r.Search(w, nil)
	if err != nil {
		return workload.Benchmark{}, err
	}
	b := w.Generator.Benchmark(res.BestParams)
	b.Name = "datamime-" + w.Name
	return b, nil
}

// DatamimeProfile profiles the Datamime-generated benchmark on a machine
// (generation always happens on Broadwell; cross-machine profiles validate
// it, as in Fig. 3).
func (r *Runner) DatamimeProfile(w Workload, m sim.MachineConfig) (*profile.Profile, error) {
	b, err := r.DatamimeBenchmark(w)
	if err != nil {
		return nil, err
	}
	return r.BenchmarkProfile(b, m)
}

// Prepare runs the Datamime searches for the given workloads in parallel;
// subsequent figure calls then hit caches. Errors are joined.
func (r *Runner) Prepare(ws []Workload) error {
	var wg sync.WaitGroup
	errs := make([]error, len(ws))
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w Workload) {
			defer wg.Done()
			_, errs[i] = r.Search(w, nil)
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
