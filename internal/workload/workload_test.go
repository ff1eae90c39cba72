package workload

import (
	"context"
	"math"
	"reflect"
	"testing"

	"datamime/internal/apps/kvstore"
	"datamime/internal/sim"
	"datamime/internal/stats"
	"datamime/internal/trace"
)

func kvBenchmark(qps float64, network bool) Benchmark {
	return Benchmark{
		Name:    "kv-test",
		QPS:     qps,
		Network: network,
		NewServer: func(layout *trace.CodeLayout, seed uint64) Server {
			cfg := kvstore.Config{
				NumKeys:        3000,
				KeySize:        stats.Normal{Mu: 24, Sigma: 4, Min: 8},
				ValueSize:      stats.Normal{Mu: 256, Sigma: 64, Min: 16},
				GetRatio:       0.9,
				PopularitySkew: 0.8,
			}
			return kvstore.New(cfg, layout, seed)
		},
	}
}

func TestBenchmarkValidate(t *testing.T) {
	good := kvBenchmark(1000, false)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Benchmark{
		{QPS: 100, NewServer: good.NewServer},           // no name
		{Name: "x", NewServer: good.NewServer},          // no QPS
		{Name: "x", QPS: -5, NewServer: good.NewServer}, // bad QPS
		{Name: "x", QPS: 100},                           // no factory
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Fatalf("bad benchmark %d validated", i)
		}
	}
}

func runKV(t *testing.T, qps float64, network bool, windows int) (*sim.Machine, RunResult) {
	t.Helper()
	b := kvBenchmark(qps, network)
	m := sim.NewMachine(sim.Broadwell(), 200_000)
	layout := trace.NewCodeLayout()
	srv := b.NewServer(layout, 1)
	res := Run(m, b, srv, windows, 42, 0)
	return m, res
}

func TestRunClosesRequestedWindows(t *testing.T) {
	m, res := runKV(t, 50_000, false, 10)
	if res.WindowsClosed < 10 {
		t.Fatalf("closed %d windows, want >= 10", res.WindowsClosed)
	}
	if len(m.Samples()) < 10 {
		t.Fatalf("machine has %d samples", len(m.Samples()))
	}
	if res.Requests == 0 {
		t.Fatal("no requests processed")
	}
}

func TestUtilizationScalesWithQPS(t *testing.T) {
	util := func(qps float64) float64 {
		m, _ := runKV(t, qps, false, 12)
		var samples []float64
		for _, s := range m.Samples() {
			samples = append(samples, s.CPUUtil)
		}
		return stats.Mean(samples)
	}
	low := util(10_000)
	high := util(300_000)
	if low >= high {
		t.Fatalf("utilization did not scale with load: %.3f vs %.3f", low, high)
	}
	if low > 0.6 {
		t.Fatalf("low-QPS utilization = %.3f, want light load", low)
	}
}

func TestAchievedQPSTracksOfferedUnderLightLoad(t *testing.T) {
	_, res := runKV(t, 20_000, false, 15)
	if res.AchievedQPS <= 0 {
		t.Fatal("no achieved QPS")
	}
	ratio := res.AchievedQPS / res.OfferedQPS
	if math.Abs(ratio-1) > 0.25 {
		t.Fatalf("achieved/offered = %.2f under light load", ratio)
	}
}

func TestSaturationCapsThroughput(t *testing.T) {
	// Offer far more load than one core can serve: utilization pegs at ~1
	// and achieved < offered.
	m, res := runKV(t, 5_000_000, false, 12)
	var utils []float64
	for _, s := range m.Samples() {
		utils = append(utils, s.CPUUtil)
	}
	if u := stats.Mean(utils); u < 0.95 {
		t.Fatalf("saturated utilization = %.3f", u)
	}
	if res.AchievedQPS > res.OfferedQPS*0.9 {
		t.Fatalf("achieved %.0f vs offered %.0f under saturation", res.AchievedQPS, res.OfferedQPS)
	}
}

func TestNetworkModeAddsWork(t *testing.T) {
	// At equal QPS, the networked configuration must execute more
	// instructions per request (kernel stack) than shared memory.
	instrPerReq := func(network bool) float64 {
		m, res := runKV(t, 40_000, network, 12)
		var total uint64
		for _, s := range m.Samples() {
			total += s.Instructions
		}
		return float64(total) / float64(res.Requests)
	}
	plain := instrPerReq(false)
	netted := instrPerReq(true)
	if netted <= plain*1.05 {
		t.Fatalf("network stack added no work: %.0f vs %.0f instrs/req", plain, netted)
	}
}

func TestMaxRequestsBoundsRun(t *testing.T) {
	b := kvBenchmark(100, false) // so slow that windows barely close
	m := sim.NewMachine(sim.Broadwell(), 1e12)
	srv := b.NewServer(trace.NewCodeLayout(), 1)
	res := Run(m, b, srv, 1, 42, 500)
	if res.Requests != 500 {
		t.Fatalf("maxRequests not honored: %d", res.Requests)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() RunResult {
		b := kvBenchmark(40_000, false)
		m := sim.NewMachine(sim.Broadwell(), 200_000)
		srv := b.NewServer(trace.NewCodeLayout(), 5)
		return Run(m, b, srv, 8, 77, 0)
	}
	a, bb := run(), run()
	if a.Requests != bb.Requests || a.AchievedQPS != bb.AchievedQPS {
		t.Fatalf("same-seed runs diverged: %+v vs %+v", a, bb)
	}
}

func TestNetworkStackEmitsKernelCode(t *testing.T) {
	ns := NewNetworkStack(trace.NewCodeLayoutAt(0x2000000))
	rec := trace.NewRecorder()
	ns.Receive(rec, 1000)
	ns.Send(rec, 5000)
	if !rec.DistinctRegions["kernel.tcpip"] || !rec.DistinctRegions["kernel.irq"] {
		t.Fatalf("kernel regions missing: %v", rec.DistinctRegions)
	}
	if rec.StoreBytes < 1000 || rec.LoadBytes < 5000 {
		t.Fatalf("socket copies too small: %d in / %d out", rec.StoreBytes, rec.LoadBytes)
	}
}

func TestNetworkStackHandlesDegenerateSizes(t *testing.T) {
	ns := NewNetworkStack(trace.NewCodeLayoutAt(0x2000000))
	rec := trace.NewRecorder()
	ns.Receive(rec, 0)
	ns.Send(rec, -1)
	if rec.Instrs == 0 {
		t.Fatal("degenerate messages still carry protocol work")
	}
}

// TestPassLanesMatchSingleLaneRuns: every lane of a pass — counter windows,
// wall-clock windows and its result — is what a pass over a machine of
// that allocation alone measures, warmup flush and all. A lane that
// reuses the main lane's server clock idles wrong and fails here.
func TestPassLanesMatchSingleLaneRuns(t *testing.T) {
	b := kvBenchmark(50_000, false)
	type laneOut struct {
		res         RunResult
		samples     []sim.WindowSample
		wallSamples []sim.WallSample
		ways, quota int
	}
	pass := func(m *sim.Machine, lanes []*sim.Lane, quotas []int) []laneOut {
		srv := b.NewServer(trace.NewCodeLayout(), 1)
		out := make([]laneOut, len(lanes))
		p := Pass{WarmupWindows: 2, Seed: 42}
		for i, ln := range lanes {
			i, ln := i, ln
			p.Lanes = append(p.Lanes, Lane{Lane: ln, Windows: quotas[i], Stop: func(r RunResult) {
				out[i] = laneOut{r, append([]sim.WindowSample(nil), ln.Samples()...),
					append([]sim.WallSample(nil), ln.WallSamples()...), ln.Ways(), quotas[i]}
			}})
		}
		if err := p.Run(context.Background(), m, b, srv); err != nil {
			t.Fatal(err)
		}
		return out
	}
	ways, quotas := []int{12, 1, 4}, []int{8, 3, 5}
	m := sim.NewMachine(sim.Broadwell(), 200_000)
	var lanes []*sim.Lane
	for _, w := range ways {
		lanes = append(lanes, m.AddLane(w))
	}
	got := pass(m, lanes, quotas)
	for i, w := range ways {
		single := sim.NewMachine(sim.Broadwell(), 200_000)
		single.SetLLCPartition(w)
		want := pass(single, []*sim.Lane{&single.Lane}, quotas[i:i+1])[0]
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%d-way lane: %+v\nits single-lane pass: %+v", w, got[i].res, want.res)
		}
		if len(got[i].samples) < quotas[i] {
			t.Errorf("%d-way lane measured %d windows, want %d", w, len(got[i].samples), quotas[i])
		}
	}
}
