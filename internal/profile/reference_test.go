package profile

import (
	"fmt"
	"reflect"
	"testing"

	"datamime/internal/apps/kvstore"
	"datamime/internal/apps/masstree"
	"datamime/internal/apps/nn"
	"datamime/internal/apps/searchidx"
	"datamime/internal/apps/silodb"
	"datamime/internal/datagen"
	"datamime/internal/sim"
	"datamime/internal/stats"
	"datamime/internal/trace"
	"datamime/internal/workload"
)

// This file keeps the multi-run sweep a profile was before it became one
// pass, as the oracle the pass is tested against: per allocation — the
// main run at the full cache, then each curve point — one server, one
// classic warm and one single-lane machine, driven by the profile's one
// request stream with warmup and measurement fused. Nothing outside the
// tests runs it.

// referenceRun is one allocation's run: what a lane of the pass must
// measure. It also returns how many requests the run served in all.
func referenceRun(pr *Profiler, b workload.Benchmark, seed uint64, ways, windows int) (runResult, int) {
	m := sim.NewMachine(pr.Machine, pr.WindowCycles)
	if ways > 0 {
		m.SetLLCPartition(ways)
	}
	srv := b.NewServer(trace.NewCodeLayout(), stats.HashSeed(seed, "dataset"))
	if w, ok := srv.(workload.Warmable); ok {
		w.WarmDataset(m)
		m.FlushSamples()
	}
	maxRequests := pr.MaxRequestsPerRun
	if maxRequests <= 0 {
		maxRequests = 4_000_000
	}
	stream := stats.HashSeed(seed, "measure-0")
	arrivalRNG := stats.NewRNG(stats.HashSeed(stream, "arrivals"))
	reqRNG := stats.NewRNG(stats.HashSeed(stream, "requests"))
	meanGapCyc := pr.Machine.CyclesPerSecond() / b.QPS
	var net *workload.NetworkStack
	if b.Network {
		net = workload.NewNetworkStack(trace.NewCodeLayoutAt(0x2000000)) // the driver's kernel text base
	}
	sizes := func() (req, resp int) {
		if s, ok := srv.(workload.Sizer); ok {
			return s.LastMessageSizes()
		}
		return 64, 64
	}

	var arrivalClock, serverFree float64
	measuring := pr.WarmupWindows == 0
	requests, measured := 0, 0
	for (!measuring || len(m.Samples()) < windows) && requests < maxRequests {
		arrivalClock += meanGapCyc * arrivalRNG.ExpFloat64()
		if arrivalClock > serverFree {
			m.Idle(arrivalClock - serverFree)
			serverFree = arrivalClock
		}
		busyBefore := m.BusyCycles()
		if net != nil {
			req, _ := sizes()
			net.Receive(m, req)
		}
		srv.Handle(m, reqRNG)
		if net != nil {
			_, resp := sizes()
			net.Send(m, resp)
		}
		serverFree += m.BusyCycles() - busyBefore
		requests++
		if measuring {
			measured++
		} else if len(m.Samples()) >= pr.WarmupWindows {
			m.FlushSamples()
			measuring = true
		}
	}
	if !measuring {
		m.FlushSamples()
	}
	res := runResult{
		samples:  append([]sim.WindowSample(nil), m.Samples()...),
		wall:     append([]sim.WallSample(nil), m.WallSamples()...),
		requests: measured,
	}
	if c, ok := srv.(workload.Compressible); ok && ways == 0 {
		res.ratio = c.CompressionRatio()
	}
	return res, requests
}

// referenceProfile is the profile the reference sweep measures.
func referenceProfile(pr *Profiler, b workload.Benchmark, seed uint64) *Profile {
	main, _ := referenceRun(pr, b, seed, 0, pr.Windows)
	p := &Profile{
		Benchmark: b.Name,
		Machine:   pr.Machine.Name,
		Samples:   make(map[MetricID][]float64, len(ScalarMetrics)),
		Requests:  main.requests,
	}
	if main.ratio > 0 {
		ratios := make([]float64, pr.Windows)
		for i := range ratios {
			ratios[i] = main.ratio
		}
		p.Samples[MetricCompress] = ratios
	}
	for _, id := range ScalarMetrics {
		var vals []float64
		switch id {
		case MetricCPUUtil:
			for _, w := range main.wall {
				vals = append(vals, w.CPUUtil)
			}
		case MetricMemBW:
			for _, w := range main.wall {
				vals = append(vals, w.MemBWGBs)
			}
		default:
			for _, s := range main.samples {
				vals = append(vals, FromSample(s, id))
			}
		}
		if vals == nil {
			vals = []float64{}
		}
		p.Samples[id] = vals
	}
	if !pr.SkipCurves {
		for _, ways := range pr.curveWays() {
			r, _ := referenceRun(pr, b, seed, ways, pr.CurveWindows)
			p.Curve = append(p.Curve, pr.curvePoint(ways, r.samples))
		}
	}
	return p
}

// oracleBenchmarks returns a small Warmable benchmark of each application:
// the key-value store with uniform and with skewed popularity (whose warm
// re-touches the hot keys through Get, moving the store's LRU list and
// code-region cursors), one over the simulated network stack, the two
// indexes, the OLTP database, and both networks of apps/nn.
func oracleBenchmarks() []workload.Benchmark {
	mk := func(name string, qps float64, newServer func(*trace.CodeLayout, uint64) workload.Server) workload.Benchmark {
		return workload.Benchmark{Name: name, QPS: qps, NewServer: newServer}
	}
	kv := func(skew float64, entropy float64) func(*trace.CodeLayout, uint64) workload.Server {
		return func(l *trace.CodeLayout, seed uint64) workload.Server {
			return kvstore.New(kvstore.Config{
				NumKeys:        6_000,
				KeySize:        stats.Normal{Mu: 24, Sigma: 4, Min: 8},
				ValueSize:      stats.Normal{Mu: 300, Sigma: 40, Min: 16},
				GetRatio:       0.9,
				PopularitySkew: skew,
				ValueEntropy:   entropy,
			}, l, seed)
		}
	}
	net := mk("kv-net", 30_000, kv(0.5, 0))
	net.Network = true
	return []workload.Benchmark{
		mk("kv-uniform", 60_000, kv(0, 0)),
		mk("kv-skewed", 60_000, kv(0.8, 4)),
		net,
		mk("masstree", 40_000, func(l *trace.CodeLayout, seed uint64) workload.Server {
			return masstree.New(masstree.Config{
				NumKeys: 6_000, ValueSize: stats.Constant{V: 100}, GetRatio: 0.5,
			}, l, seed)
		}),
		mk("silodb", 20_000, func(l *trace.CodeLayout, seed uint64) workload.Server {
			return silodb.New(silodb.Config{
				Mode: silodb.ModeTPCC, Warehouses: 1, TxMix: [5]float64{1, 1, 1, 1, 1},
			}, l, seed)
		}),
		mk("searchidx", 5_000, func(l *trace.CodeLayout, seed uint64) workload.Server {
			return searchidx.New(searchidx.Config{
				Corpus: searchidx.CorpusConfig{
					NumDocs: 2_000, NumTerms: 400,
					DocLength: stats.Constant{V: 500}, DFSkew: 0.9, MaxDF: 0.2,
				},
				QuerySkew: 0.5, QueryMaxDF: 0.1, TermsPerQuery: 2, TopK: 4,
			}, l, seed)
		}),
		mk("nn", 2_000, func(l *trace.CodeLayout, seed uint64) workload.Server {
			return nn.New(nn.NetSpec{
				InputC: 3, InputHW: 8,
				Layers:  []nn.LayerSpec{{Kind: nn.Conv3x3, OutChannels: 8}, {Kind: nn.FC}},
				Classes: 10,
			}, l, seed)
		}),
		mk("autoencoder", nn.AutoencoderQPS, func(l *trace.CodeLayout, seed uint64) workload.Server {
			return nn.NewAutoencoderServer(l, seed)
		}),
	}
}

// oracleSpecs are the budgets the oracle covers: harness.Quick()'s (whose
// 12-way Broadwell point is the main lane; see TestTapedSweepMatchesClassic),
// the main run alone, a curve point for every way, no warmup windows, and a
// request bound that cuts the pass short (set per benchmark, see
// TestOnePassMatchesReference).
func oracleSpecs() map[string]Spec {
	quick := Spec{WindowCycles: 200_000, Windows: 16, WarmupWindows: 3, CurveWindows: 3, CurvePoints: 6}
	skip := quick
	skip.SkipCurves = true
	all := quick
	all.Windows, all.CurvePoints = 6, 16
	cold := quick
	cold.WarmupWindows = 0
	capped := quick
	capped.MaxRequestsPerRun = -1 // two thirds of the unbounded main run's requests
	return map[string]Spec{"quick": quick, "skip-curves": skip, "all-ways": all, "no-warmup": cold, "max-requests": capped}
}

// generatorBenchmarks are candidates as a search makes them, at the
// generators' real sizes: a 110 000-key store (one whose values compress)
// and a network whose convolutions are large enough that the build holds
// sampled rows.
func generatorBenchmarks() []workload.Benchmark {
	return []workload.Benchmark{
		datagen.Memcached().Benchmark([]float64{100_000, 0.9, 30, 8, 600, 100}),
		datagen.MemcachedCompressible().Benchmark([]float64{100_000, 0.9, 30, 8, 600, 100, 3.5}),
		datagen.DNN().Benchmark([]float64{2000, 3, 1, 1, 1, 96}),
	}
}

// assertOnePass fails t unless pr's one-pass profile of b is, bit for bit,
// the reference sweep's.
func assertOnePass(t *testing.T, pr *Profiler, b workload.Benchmark) *Profile {
	t.Helper()
	want := referenceProfile(pr, b, 7)
	got, err := pr.Profile(b, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("one-pass profile diverged from the reference sweep:\n got %+v\nwant %+v", summary(got), summary(want))
	}
	return got
}

// TestTapedSweepMatchesClassic is the pass's contract under
// harness.Quick()'s budgets: its profile is, bit for bit, the reference
// sweep's — for every application, on every Table II machine (Silvermont's
// lanes are its last-level L2). The name dates from the warm tape the lanes
// replaced; the contract, the fast sweep equal to the classic one run per
// allocation, is the same.
func TestTapedSweepMatchesClassic(t *testing.T) {
	spec := oracleSpecs()["quick"]
	for _, b := range oracleBenchmarks() {
		for _, machine := range sim.Machines() {
			b, machine := b, machine
			t.Run(b.Name+"/"+machine.Name, func(t *testing.T) {
				t.Parallel()
				assertOnePass(t, &Profiler{Machine: machine, Spec: spec}, b)
			})
		}
	}
}

// TestOnePassMatchesReference extends that contract to every other oracle
// spec, and to the generators' own candidates on Broadwell under
// harness.Quick()'s budgets. Under -short (the race detector's pass) the
// other specs run on Broadwell only and the two 110 000-key generator rows
// are skipped.
func TestOnePassMatchesReference(t *testing.T) {
	specs := oracleSpecs()
	for i, b := range generatorBenchmarks() {
		b, name := b, []string{"memcached", "memcached-compressible", "dnn"}[i]
		if testing.Short() && name != "dnn" {
			continue
		}
		t.Run("generator/"+name+"/broadwell", func(t *testing.T) {
			t.Parallel()
			assertOnePass(t, &Profiler{Machine: sim.Broadwell(), Spec: specs["quick"]}, b)
		})
	}
	for _, name := range []string{"skip-curves", "all-ways", "no-warmup", "max-requests"} {
		spec := specs[name]
		for _, b := range oracleBenchmarks() {
			for _, machine := range sim.Machines() {
				if testing.Short() && machine.Name != "broadwell" {
					continue
				}
				b, machine := b, machine
				t.Run(fmt.Sprintf("%s/%s/%s", name, b.Name, machine.Name), func(t *testing.T) {
					t.Parallel()
					pr := &Profiler{Machine: machine, Spec: spec}
					if spec.MaxRequestsPerRun < 0 {
						pr.MaxRequestsPerRun = 0
						_, all := referenceRun(pr, b, 7, 0, pr.Windows)
						pr.MaxRequestsPerRun = all * 2 / 3
					}
					got := assertOnePass(t, pr, b)
					if n := len(got.Samples[MetricIPC]); name == "max-requests" && (n == 0 || n >= spec.Windows) {
						t.Fatalf("the request bound did not cut the main lane's measurement (%d windows)", n)
					}
				})
			}
		}
	}
}

// summary is what a failure prints of a profile.
func summary(p *Profile) string {
	return fmt.Sprintf("requests %d, %d windows, mean IPC %g, curve %+v",
		p.Requests, len(p.Samples[MetricIPC]), p.Mean(MetricIPC), p.Curve)
}
