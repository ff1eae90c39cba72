package datamime_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"datamime"
)

func TestMachinePresets(t *testing.T) {
	ms := datamime.Machines()
	if len(ms) != 3 {
		t.Fatalf("%d machines", len(ms))
	}
	names := map[string]bool{}
	for _, m := range ms {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		names[m.Name] = true
	}
	for _, want := range []string{"broadwell", "zen2", "silvermont"} {
		if !names[want] {
			t.Fatalf("missing machine %s", want)
		}
	}
}

func TestGeneratorsExposed(t *testing.T) {
	if len(datamime.Generators()) != 4 {
		t.Fatal("expected four Table III generators")
	}
	g, err := datamime.GeneratorByName("memcached")
	if err != nil || g.Space.Dim() != 6 {
		t.Fatalf("memcached generator: %v, dim %d", err, g.Space.Dim())
	}
	if _, err := datamime.GeneratorByName("bogus"); err == nil {
		t.Fatal("unknown generator resolved")
	}
}

func TestWorkloadsExposed(t *testing.T) {
	if len(datamime.Workloads()) != 5 || len(datamime.CaseStudyWorkloads()) != 2 {
		t.Fatal("workload registry wrong size")
	}
	if datamime.MemFB().Name != "mem-fb" {
		t.Fatal("MemFB misnamed")
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := datamime.ExperimentIDs()
	if len(ids) < 15 {
		t.Fatalf("only %d experiments", len(ids))
	}
	r := datamime.NewRunner(datamime.QuickSettings())
	var sb strings.Builder
	// Static tables run instantly and exercise the dispatch path.
	for _, id := range []string{"table1", "table2", "table3"} {
		if err := datamime.RunExperiment(r, id, &sb); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if err := datamime.RunExperiment(r, "nope", &sb); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestPublicProfilingPipeline(t *testing.T) {
	// The examples' one-line budget hand-off takes every budget, the warmup
	// included (copying fields one by one used to keep the full 5).
	quick := datamime.NewProfiler(datamime.Broadwell())
	quick.Spec = datamime.QuickSettings().Spec
	if quick.WarmupWindows != 3 || quick.Spec != (datamime.ProfileSpec{
		WindowCycles: 200_000, Windows: 16, WarmupWindows: 3, CurveWindows: 3, CurvePoints: 6,
	}) {
		t.Fatalf("profiler given QuickSettings().Spec measures %+v", quick.Spec)
	}

	pr := datamime.NewProfiler(datamime.Broadwell())
	pr.WindowCycles = 120_000
	pr.Windows = 6
	pr.WarmupWindows = 1
	pr.SkipCurves = true
	p, err := pr.Profile(datamime.MemFB(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mean(datamime.MetricIPC) <= 0 {
		t.Fatal("no IPC measured")
	}
	// The clone baseline is constructible from the public surface.
	clone := datamime.CloneBaseline(p, "clone")
	cp, err := pr.Profile(clone, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Mean(datamime.MetricCPUUtil) < 0.99 {
		t.Fatalf("clone util %g", cp.Mean(datamime.MetricCPUUtil))
	}
}

func TestPublicServiceSurface(t *testing.T) {
	// The datamimed service is constructible and drivable in-process from
	// the public surface alone.
	svc, err := datamime.NewService(datamime.ServiceConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	job, err := svc.Submit(datamime.JobSpec{
		Generator:   "memcached",
		Iterations:  3,
		Seed:        5,
		Optimizer:   "random",
		Metric:      string(datamime.MetricCPUUtil),
		MetricValue: 0.2,
		Profiling:   &datamime.ProfilingSpec{WindowCycles: 80_000, Windows: 3, WarmupWindows: 1, SkipCurves: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("service job did not finish")
	}
	if _, err := svc.Submit(datamime.JobSpec{Iterations: -1}); err == nil {
		t.Fatal("invalid job spec accepted")
	}

	// SearchContext + a shared evaluation cache, exercised publicly: the
	// second same-seed search is served entirely from the cache.
	cache := datamime.NewEvalCache(64)
	gen, err := datamime.GeneratorByName("memcached")
	if err != nil {
		t.Fatal(err)
	}
	pr := datamime.NewProfiler(datamime.Broadwell())
	pr.WindowCycles = 80_000
	pr.Windows = 3
	pr.WarmupWindows = 1
	pr.SkipCurves = true
	cfg := datamime.SearchConfig{
		Generator:  gen,
		Objective:  datamime.MetricObjective{Metric: datamime.MetricCPUUtil, Value: 0.2},
		Profiler:   pr,
		Iterations: 3,
		Seed:       5,
		Optimizer:  datamime.NewRandomSearch(gen.Space, 5),
		Cache:      cache,
	}
	if _, err := datamime.SearchContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Optimizer = datamime.NewRandomSearch(gen.Space, 5)
	res, err := datamime.SearchContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != res.Evaluations {
		t.Fatalf("cached rerun: %d hits for %d evaluations", res.CacheHits, res.Evaluations)
	}
}

func TestPublicExtensionSurface(t *testing.T) {
	// A custom server implemented purely against the public surface.
	layout := datamime.NewCodeLayout()
	region := layout.Region("custom.op", 2048)
	srv := &countingServer{code: region}
	bench := datamime.Benchmark{
		Name: "custom",
		QPS:  50_000,
		NewServer: func(*datamime.CodeLayout, uint64) datamime.Server {
			return srv
		},
	}
	m := datamime.NewMachine(datamime.Broadwell(), 100_000)
	res := datamime.Run(m, bench, srv, 3, 1, 0)
	if res.Requests == 0 || len(m.Samples()) < 3 {
		t.Fatalf("custom server did not run: %+v", res)
	}
	if srv.calls != res.Requests {
		t.Fatalf("handle calls %d != requests %d", srv.calls, res.Requests)
	}
}

// countingServer is a minimal public-API Server.
type countingServer struct {
	code  *datamime.CodeRegion
	calls int
}

func (c *countingServer) Name() string { return "counting" }
func (c *countingServer) Handle(col datamime.Collector, rng *datamime.RNG) {
	c.calls++
	col.Exec(c.code, 500)
	col.Load(0x30000000, 256)
	col.Branch(c.code.Base, rng.Bool(0.5))
}

func TestPublicStatsHelpers(t *testing.T) {
	if d := datamime.EMD([]float64{0, 0}, []float64{1, 1}); d != 1 {
		t.Fatalf("EMD = %g", d)
	}
	if d := datamime.NormalizedEMD([]float64{0, 0}, []float64{2, 2}); d != 1 {
		t.Fatalf("NormalizedEMD = %g", d)
	}
	z := datamime.NewZipf(10, 1)
	rng := datamime.NewRNG(1)
	if k := z.Sample(rng); k < 0 || k >= 10 {
		t.Fatalf("zipf sample %d", k)
	}
	var dist datamime.Distribution = datamime.GPareto{Loc: 1, Scale: 2, Shape: 0.1}
	if dist.Sample(rng) < 1 {
		t.Fatal("GPareto below location")
	}
	space, err := datamime.NewSpace(datamime.Param{Name: "x", Lo: 0, Hi: 1})
	if err != nil || space.Dim() != 1 {
		t.Fatal("NewSpace broken")
	}
	if datamime.NewBayesOpt(space, 1).Name() != "bayesopt" {
		t.Fatal("bayesopt constructor broken")
	}
	if datamime.NewRandomSearch(space, 1).Name() != "random" {
		t.Fatal("random-search constructor broken")
	}
}
