package profile

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"datamime/internal/apps/kvstore"
	"datamime/internal/apps/masstree"
	"datamime/internal/apps/nn"
	"datamime/internal/apps/searchidx"
	"datamime/internal/apps/silodb"
	"datamime/internal/sim"
	"datamime/internal/stats"
	"datamime/internal/telemetry"
	"datamime/internal/trace"
	"datamime/internal/workload"
)

// tapeBenchmarks returns a small Warmable benchmark of each application. The
// key-value store appears twice: with PopularitySkew its warm re-touches the
// hot keys through Get, which reorders the store's LRU list and advances
// code-region cursors — server state the replaying runs must reach too.
func tapeBenchmarks() []workload.Benchmark {
	mk := func(name string, qps float64, newServer func(*trace.CodeLayout, uint64) workload.Server) workload.Benchmark {
		return workload.Benchmark{Name: name, QPS: qps, NewServer: newServer}
	}
	kv := func(skew float64) func(*trace.CodeLayout, uint64) workload.Server {
		return func(l *trace.CodeLayout, seed uint64) workload.Server {
			return kvstore.New(kvstore.Config{
				NumKeys:        6_000,
				KeySize:        stats.Normal{Mu: 24, Sigma: 4, Min: 8},
				ValueSize:      stats.Normal{Mu: 300, Sigma: 40, Min: 16},
				GetRatio:       0.9,
				PopularitySkew: skew,
			}, l, seed)
		}
	}
	return []workload.Benchmark{
		mk("kv-uniform", 60_000, kv(0)),
		mk("kv-skewed", 60_000, kv(0.8)),
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
	}
}

// TestTapedSweepMatchesClassic is the tape's contract at the profile level:
// a sweep whose runs share one warm tape yields, bit for bit, the profile of
// a sweep whose every run warms from cold — for each application, serial and
// pooled, and for the key-value store on all three machines (Silvermont's
// tape stops above its last-level L2). Under -race it also shows the sealed
// tape is only ever read by the pool.
func TestTapedSweepMatchesClassic(t *testing.T) {
	type tc struct {
		b       workload.Benchmark
		machine sim.MachineConfig
	}
	var cases []tc
	for _, b := range tapeBenchmarks() {
		cases = append(cases, tc{b, sim.Broadwell()})
	}
	for _, m := range []sim.MachineConfig{sim.Zen2(), sim.Silvermont()} {
		cases = append(cases, tc{tapeBenchmarks()[1], m})
	}
	for _, c := range cases {
		c := c
		t.Run(c.b.Name+"/"+c.machine.Name, func(t *testing.T) {
			t.Parallel()
			classic := fastProfiler()
			classic.Machine = c.machine
			classic.classicWarm = true
			want, err := classic.Profile(c.b, 7)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				var spans telemetry.Collector
				pr := fastProfiler()
				pr.Machine = c.machine
				pr.Workers = workers
				pr.disableWorkerClamp = true
				pr.Telemetry = telemetry.New(telemetry.Options{OnEvent: spans.Record})
				got, err := pr.Profile(c.b, 7)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d: taped sweep diverged from the classic sweep", workers)
				}
				// The comparison means nothing if the sweep quietly warmed
				// classically. One run records; serially every other run
				// replays, in a pool those that warm after the seal do.
				modes := map[sim.WarmMode]int{}
				for _, ev := range spans.Events() {
					if ev.Type == telemetry.TypeSpan && ev.Phase == telemetry.PhaseSimRun {
						modes[sim.WarmMode(ev.Attrs[telemetry.AttrWarm])]++
					}
				}
				runs := 1 + len(pr.curveWays())
				if modes[sim.WarmRecord] != 1 || modes[sim.WarmRecord]+modes[sim.WarmReplay]+modes[sim.WarmClassic] != runs {
					t.Errorf("workers=%d: warm modes %v, want 1 recording run of %d", workers, modes, runs)
				}
				if workers == 1 && modes[sim.WarmReplay] != runs-1 {
					t.Errorf("serial sweep replayed %d of %d warms", modes[sim.WarmReplay], runs-1)
				}
			}
		})
	}
}

// TestSimSpanCarriesRunPhases: with telemetry on, every profile.sim span says
// where its time went, and the parts fit inside the span.
func TestSimSpanCarriesRunPhases(t *testing.T) {
	var spans telemetry.Collector
	pr := fastProfiler()
	pr.Telemetry = telemetry.New(telemetry.Options{OnEvent: spans.Record})
	if _, err := pr.Profile(kvBenchmark(256, 60_000), 7); err != nil {
		t.Fatal(err)
	}
	runs := 0
	for _, ev := range spans.Events() {
		if ev.Type != telemetry.TypeSpan || ev.Phase != telemetry.PhaseSimRun {
			continue
		}
		runs++
		var sum float64
		for _, k := range []string{telemetry.AttrBuildNS, telemetry.AttrWarmNS, telemetry.AttrMeasureNS} {
			v, ok := ev.Attrs[k]
			if !ok || v <= 0 {
				t.Errorf("sim span attr %s = %v, want a positive duration", k, v)
			}
			sum += v
		}
		if sum > float64(ev.DurNS) {
			t.Errorf("sim span phases sum to %.0f ns, more than the span's %d ns", sum, ev.DurNS)
		}
		if _, ok := ev.Attrs[telemetry.AttrWarm]; !ok {
			t.Error("sim span missing warm attr")
		}
	}
	if want := 1 + len(pr.curveWays()); runs != want {
		t.Fatalf("%d profile.sim spans, want %d", runs, want)
	}
}

// fickleServer is a Warmable whose warm depends on which instance it is —
// what iterating a Go map in WarmDataset would do to an application built on
// the extension API.
type fickleServer struct {
	instance int
	// shorten makes each instance emit a different number of events;
	// otherwise each emits the same events in a different order.
	shorten bool
}

func (s *fickleServer) Name() string { return "fickle" }

func (s *fickleServer) Handle(col trace.Collector, rng *stats.RNG) {
	col.Load(0x10000000+uint64(rng.IntN(1<<20)), 64)
	col.Ops(2_000)
}

func (s *fickleServer) WarmDataset(col trace.Collector) {
	const blocks = 512
	n := blocks
	if s.shorten {
		n -= s.instance
	}
	for i := 0; i < n; i++ {
		j := i
		if !s.shorten {
			j = (i + s.instance) % blocks
		}
		col.Load(0x10000000+uint64(j)*4096, 256)
	}
}

// TestDivergingWarmFailsTheProfile: servers that do not warm identically
// must cost the candidate its evaluation — an error naming the benchmark —
// and never produce a profile from a replayed warm. In a pool the runs that
// warm while the recording is in progress warm classically and are as valid
// as the application makes them, so there the error is owed only when a run
// did replay.
func TestDivergingWarmFailsTheProfile(t *testing.T) {
	for _, shorten := range []bool{false, true} {
		for _, workers := range []int{1, 3} {
			var built atomic.Int64
			b := workload.Benchmark{
				Name: "fickle-bench", QPS: 50_000,
				NewServer: func(*trace.CodeLayout, uint64) workload.Server {
					return &fickleServer{instance: int(built.Add(1)) - 1, shorten: shorten}
				},
			}
			var spans telemetry.Collector
			pr := fastProfiler()
			pr.Workers = workers
			pr.disableWorkerClamp = true
			pr.Telemetry = telemetry.New(telemetry.Options{OnEvent: spans.Record})
			p, err := pr.Profile(b, 7)
			replays := 0
			for _, ev := range spans.Events() {
				if ev.Phase == telemetry.PhaseSimRun && sim.WarmMode(ev.Attrs[telemetry.AttrWarm]) == sim.WarmReplay {
					replays++
				}
			}
			if workers == 1 && replays == 0 {
				t.Fatalf("shorten=%v: the serial sweep replayed nothing", shorten)
			}
			if replays > 0 && (err == nil || p != nil) {
				t.Fatalf("shorten=%v workers=%d: %d diverging replays produced a profile (err %v)", shorten, workers, replays, err)
			}
			if err != nil && !strings.Contains(err.Error(), "fickle-bench") {
				t.Errorf("error does not name the benchmark: %v", err)
			}
			// Classic warming has no such contract: the same benchmark
			// profiles.
			pr.classicWarm = true
			if _, err := pr.Profile(b, 7); err != nil {
				t.Fatalf("classic sweep: %v", err)
			}
		}
	}
}
