package profile

import (
	"reflect"
	"testing"

	"datamime/internal/apps/kvstore"
	"datamime/internal/sim"
	"datamime/internal/stats"
	"datamime/internal/trace"
	"datamime/internal/workload"
)

func kvBenchmark(valMean float64, qps float64) workload.Benchmark {
	return workload.Benchmark{
		Name: "kv-profile-test",
		QPS:  qps,
		NewServer: func(layout *trace.CodeLayout, seed uint64) workload.Server {
			return kvstore.New(kvstore.Config{
				NumKeys:        8000,
				KeySize:        stats.Normal{Mu: 24, Sigma: 4, Min: 8},
				ValueSize:      stats.Normal{Mu: valMean, Sigma: valMean / 8, Min: 16},
				GetRatio:       0.9,
				PopularitySkew: 0.6,
			}, layout, seed)
		},
	}
}

// fastProfiler keeps unit tests quick.
func fastProfiler() *Profiler {
	p := New(sim.Broadwell())
	p.WindowCycles = 150_000
	p.Windows = 12
	p.WarmupWindows = 2
	p.CurveWindows = 3
	p.CurvePoints = 4
	return p
}

func TestProfileCollectsAllMetrics(t *testing.T) {
	p, err := fastProfiler().Profile(kvBenchmark(256, 60_000), 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Benchmark == "" || p.Machine != "broadwell" {
		t.Fatalf("profile identity %q/%q", p.Benchmark, p.Machine)
	}
	for _, id := range ScalarMetrics {
		samples := p.Samples[id]
		// Counter metrics come from busy-cycle windows (exactly Windows of
		// them); utilization and bandwidth come from wall-clock windows, of
		// which a lightly-loaded server accumulates at least as many.
		if id == MetricCPUUtil || id == MetricMemBW {
			if len(samples) < 12 {
				t.Fatalf("metric %s has %d wall samples, want >= 12", id, len(samples))
			}
			continue
		}
		if len(samples) != 12 {
			t.Fatalf("metric %s has %d samples, want 12", id, len(samples))
		}
	}
	if p.Mean(MetricIPC) <= 0 || p.Mean(MetricIPC) > 6 {
		t.Fatalf("implausible IPC %g", p.Mean(MetricIPC))
	}
	if u := p.Mean(MetricCPUUtil); u <= 0 || u > 1 {
		t.Fatalf("implausible CPU util %g", u)
	}
	if p.Requests == 0 {
		t.Fatal("no requests recorded")
	}
}

func TestProfileCurveShape(t *testing.T) {
	p, err := fastProfiler().Profile(kvBenchmark(512, 80_000), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Curve) != 4 {
		t.Fatalf("curve has %d points", len(p.Curve))
	}
	if p.Curve[0].Ways != 1 || p.Curve[len(p.Curve)-1].Ways != 12 {
		t.Fatalf("curve endpoints: %+v", p.Curve)
	}
	// More cache must not make LLC MPKI dramatically worse; typically it
	// improves monotonically. Allow small noise.
	first, last := p.Curve[0].LLCMPKI, p.Curve[len(p.Curve)-1].LLCMPKI
	if last > first*1.2 {
		t.Fatalf("LLC MPKI rose with cache size: %g -> %g", first, last)
	}
	// IPC should not collapse with more cache.
	if p.Curve[len(p.Curve)-1].IPC < p.Curve[0].IPC*0.8 {
		t.Fatalf("IPC fell with cache size: %g -> %g",
			p.Curve[0].IPC, p.Curve[len(p.Curve)-1].IPC)
	}
	// Curve accessors.
	if len(p.IPCCurve()) != 4 || len(p.LLCCurve()) != 4 {
		t.Fatal("curve accessors broken")
	}
}

func TestWarmedCurveHasShape(t *testing.T) {
	// With a skewed, larger-than-LLC working set and dataset warming, the
	// cache-sensitivity curve must actually slope: more cache -> fewer LLC
	// misses, with most of the benefit by the time the hot set fits
	// (Fig. 7's memcached shape).
	b := workload.Benchmark{
		Name: "kv-curve",
		QPS:  120_000,
		NewServer: func(layout *trace.CodeLayout, seed uint64) workload.Server {
			return kvstore.New(kvstore.Config{
				NumKeys:        60_000,
				KeySize:        stats.Normal{Mu: 24, Sigma: 6, Min: 8},
				ValueSize:      stats.Normal{Mu: 400, Sigma: 80, Min: 16},
				GetRatio:       0.95,
				PopularitySkew: 1.0,
			}, layout, seed)
		},
	}
	pr := New(sim.Broadwell())
	pr.WindowCycles = 200_000
	pr.Windows = 8
	pr.WarmupWindows = 2
	pr.CurveWindows = 4
	pr.CurvePoints = 4
	p, err := pr.Profile(b, 5)
	if err != nil {
		t.Fatal(err)
	}
	first := p.Curve[0].LLCMPKI
	last := p.Curve[len(p.Curve)-1].LLCMPKI
	if last >= first*0.85 {
		t.Fatalf("curve too flat: %g MPKI at 1 way vs %g at full cache (%v)",
			first, last, p.LLCCurve())
	}
	if p.Curve[len(p.Curve)-1].IPC <= p.Curve[0].IPC {
		t.Fatalf("IPC curve does not rise with cache: %v", p.IPCCurve())
	}
}

func TestDatasetChangesProfile(t *testing.T) {
	pr := fastProfiler()
	small, err := pr.Profile(kvBenchmark(64, 60_000), 3)
	if err != nil {
		t.Fatal(err)
	}
	big, err := pr.Profile(kvBenchmark(3000, 60_000), 3)
	if err != nil {
		t.Fatal(err)
	}
	if big.Mean(MetricMemBW) <= small.Mean(MetricMemBW) {
		t.Fatalf("value size did not raise memory bandwidth: %g vs %g",
			small.Mean(MetricMemBW), big.Mean(MetricMemBW))
	}
	if big.Mean(MetricLLC) <= small.Mean(MetricLLC) {
		t.Fatalf("value size did not raise LLC MPKI: %g vs %g",
			small.Mean(MetricLLC), big.Mean(MetricLLC))
	}
}

func TestProfileDeterministicGivenSeed(t *testing.T) {
	pr := fastProfiler()
	a, err := pr.Profile(kvBenchmark(256, 60_000), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pr.Profile(kvBenchmark(256, 60_000), 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ScalarMetrics {
		av, bv := a.Samples[id], b.Samples[id]
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("metric %s sample %d diverged: %g vs %g", id, i, av[i], bv[i])
			}
		}
	}
}

func TestProfileSeedChangesNoise(t *testing.T) {
	pr := fastProfiler()
	a, _ := pr.Profile(kvBenchmark(256, 60_000), 10)
	b, _ := pr.Profile(kvBenchmark(256, 60_000), 11)
	same := true
	for i, v := range a.Samples[MetricIPC] {
		if v != b.Samples[MetricIPC][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical profiles (no measurement noise)")
	}
}

func TestSkipCurves(t *testing.T) {
	pr := fastProfiler()
	pr.SkipCurves = true
	p, err := pr.Profile(kvBenchmark(256, 60_000), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Curve) != 0 {
		t.Fatalf("SkipCurves left %d curve points", len(p.Curve))
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	pr := fastProfiler()
	p, err := pr.Profile(kvBenchmark(256, 60_000), 5)
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	q, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if q.Benchmark != p.Benchmark || len(q.Curve) != len(p.Curve) {
		t.Fatal("round-trip lost fields")
	}
	for _, id := range ScalarMetrics {
		if len(q.Samples[id]) != len(p.Samples[id]) {
			t.Fatalf("metric %s lost samples", id)
		}
	}
	if _, err := DecodeJSON([]byte("{bad")); err == nil {
		t.Fatal("invalid JSON accepted")
	}
}

func TestValidationErrors(t *testing.T) {
	pr := fastProfiler()
	pr.Windows = 0
	if _, err := pr.Profile(kvBenchmark(256, 60_000), 1); err == nil {
		t.Fatal("invalid profiler accepted")
	}
	pr2 := fastProfiler()
	if _, err := pr2.Profile(workload.Benchmark{}, 1); err == nil {
		t.Fatal("invalid benchmark accepted")
	}
}

func TestCurveWaysSpread(t *testing.T) {
	pr := New(sim.Broadwell())
	ways := pr.curveWays()
	if len(ways) != 12 || ways[0] != 1 || ways[11] != 12 {
		t.Fatalf("default Broadwell curve ways = %v", ways)
	}
	pr.CurvePoints = 3
	ways = pr.curveWays()
	if len(ways) != 3 || ways[0] != 1 || ways[2] != 12 {
		t.Fatalf("3-point curve ways = %v", ways)
	}
	// Zen2 has 16 ways; the sweep is capped at 12 points like the paper.
	prz := New(sim.Zen2())
	if w := prz.curveWays(); len(w) > 12 {
		t.Fatalf("Zen2 curve has %d points", len(w))
	}
	// Silvermont's LLC is its 8-way L2.
	prs := New(sim.Silvermont())
	if w := prs.curveWays(); len(w) != 8 {
		t.Fatalf("Silvermont curve ways = %v", w)
	}
}

func TestFromSamplePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown metric did not panic")
		}
	}()
	FromSample(sim.WindowSample{}, MetricID("bogus"))
}

// TestFreeListIgnoresWindowLength: profiles of one machine configuration at
// different window lengths share one free list, so idle machines do not pile
// up per window length, and a machine reused at another length profiles as
// a fresh one does.
func TestFreeListIgnoresWindowLength(t *testing.T) {
	cfg := sim.Broadwell()
	cfg.Name = "free-list-test"
	b := kvBenchmark(256, 60_000)
	profileAt := func(window float64) *Profile {
		pr := fastProfiler()
		pr.Machine = cfg
		pr.WindowCycles = window
		p, err := pr.Profile(b, 7)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	want := profileAt(150_000)
	if other := profileAt(90_000); reflect.DeepEqual(other, want) {
		t.Fatal("the window length did not change the profile")
	}
	if got := profileAt(150_000); !reflect.DeepEqual(got, want) {
		t.Fatal("a machine reused from a 90 000-cycle profile changed a 150 000-cycle profile")
	}
	free.Lock()
	defer free.Unlock()
	var lists, machines int
	for k, f := range free.lists {
		if k.cfg.Name == cfg.Name {
			lists++
			machines += len(f.machines)
		}
	}
	if lists != 1 || machines != 1 {
		t.Fatalf("three serial profiles at two window lengths left %d free lists holding %d machines, want 1 and 1", lists, machines)
	}
}
