package profile

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
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
// code-region cursors — server state the restoring runs must reach too.
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
// a sweep whose later runs restore one recorded warm yields, bit for bit,
// the profile of a sweep whose every run warms from cold — for each
// application, serial and pooled, and for the key-value store on all three
// machines (Silvermont's lanes are its last-level L2). Under -race it also
// shows the sealed tape is only ever read by the pool.
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
				pr := fastProfiler()
				pr.Machine = c.machine
				pr.Workers = workers
				pr.disableWorkerClamp = true
				var modes map[sim.WarmMode]int
				pr.Telemetry, modes = warmModeRecorder()
				got, err := pr.Profile(c.b, 7)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d: taped sweep diverged from the classic sweep", workers)
				}
				// The comparison means nothing if the sweep quietly warmed
				// classically.
				runs := 1 + len(pr.curveWays())
				if modes[sim.WarmRecord] != 1 || modes[sim.WarmClassic] != workers-1 || modes[sim.WarmRestore] != runs-workers {
					t.Errorf("workers=%d: warm modes %v over %d runs", workers, modes, runs)
				}
			}
		})
	}
}

// warmModeRecorder returns a recorder that counts its profile.sim spans by
// how they warmed.
func warmModeRecorder() (*telemetry.Recorder, map[sim.WarmMode]int) {
	modes := map[sim.WarmMode]int{}
	var mu sync.Mutex
	rec := telemetry.New(telemetry.Options{OnEvent: func(ev telemetry.Event) {
		if ev.Type == telemetry.TypeSpan && ev.Phase == telemetry.PhaseSimRun {
			mu.Lock()
			modes[sim.WarmMode(ev.Attrs[telemetry.AttrWarm])]++
			mu.Unlock()
		}
	}})
	return rec, modes
}

// TestSweepFirstWave: the first wave starts together — one run records, the
// rest warm classically — and every later run restores. The wave is as wide
// as the pool and the Budget's free tokens allow (a run that would queue
// for a token restores), and always leaves the last run to restore, even in
// a pool wider than the sweep. Every token goes back to the Budget.
func TestSweepFirstWave(t *testing.T) {
	b := kvBenchmark(256, 60_000)
	for _, tc := range []struct {
		workers int
		budget  int // tokens; 0 shares no Budget
		taken   int // tokens another profile holds throughout
		wave    int
	}{
		{workers: 1, wave: 1},
		{workers: 2, wave: 2},
		{workers: 4, wave: 4},
		{workers: 8, wave: 8},
		{workers: 14, wave: 12}, // 13 runs
		{workers: 4, budget: 4, wave: 4},
		{workers: 4, budget: 4, taken: 2, wave: 2},
		{workers: 4, budget: 5, taken: 4, wave: 1},
		{workers: 14, budget: 16, taken: 1, wave: 12},
	} {
		pr := fastProfiler()
		pr.CurvePoints = 12
		pr.Workers = tc.workers
		pr.disableWorkerClamp = true
		if tc.budget > 0 {
			pr.Budget = NewBudget(tc.budget)
			if got := pr.Budget.TryAcquire(tc.taken); got != tc.taken {
				t.Fatalf("took %d of %d free tokens", got, tc.taken)
			}
		}
		var modes map[sim.WarmMode]int
		pr.Telemetry, modes = warmModeRecorder()
		if _, err := pr.Profile(b, 7); err != nil {
			t.Fatal(err)
		}
		runs := 1 + len(pr.curveWays())
		want := map[sim.WarmMode]int{sim.WarmRecord: 1, sim.WarmClassic: tc.wave - 1, sim.WarmRestore: runs - tc.wave}
		for _, mode := range []sim.WarmMode{sim.WarmClassic, sim.WarmRecord, sim.WarmRestore} {
			if modes[mode] != want[mode] {
				t.Errorf("workers=%d budget=%d taken=%d: warm modes %v over %d runs, want %v", tc.workers, tc.budget, tc.taken, modes, runs, want)
				break
			}
		}
		if tc.budget > 0 {
			if free := pr.Budget.TryAcquire(tc.budget); free != tc.budget-tc.taken {
				t.Errorf("workers=%d budget=%d taken=%d: %d tokens free after the sweep, want %d", tc.workers, tc.budget, tc.taken, free, tc.budget-tc.taken)
			}
		}
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
// and never produce a profile from a restored warm. The first wave's
// classic warms are as valid as the application makes them, so the error is
// owed only when a run did restore.
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
			pr := fastProfiler()
			pr.Workers = workers
			pr.disableWorkerClamp = true
			var modes map[sim.WarmMode]int
			pr.Telemetry, modes = warmModeRecorder()
			p, err := pr.Profile(b, 7)
			restores := modes[sim.WarmRestore]
			if restores == 0 {
				t.Fatalf("shorten=%v workers=%d: the sweep restored nothing", shorten, workers)
			}
			if err == nil || p != nil {
				t.Fatalf("shorten=%v workers=%d: %d diverging restores produced a profile (err %v)", shorten, workers, restores, err)
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

// TestRestoresWaitOutsideTheBudget: the runs after the first wave wait for
// the seal holding no budget token — with one token for four workers, a
// restore that took a token before waiting would starve the recording — and
// the sweep is still the serial one, bit for bit.
func TestRestoresWaitOutsideTheBudget(t *testing.T) {
	b := kvBenchmark(256, 60_000)
	serial := fastProfiler()
	serial.CurvePoints = 12
	want, err := serial.Profile(b, 7)
	if err != nil {
		t.Fatal(err)
	}
	pr := fastProfiler()
	pr.CurvePoints = 12
	pr.Workers = 4
	pr.disableWorkerClamp = true
	pr.Budget = NewBudget(1)
	got, err := pr.Profile(b, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a one-token pooled sweep diverged from the serial sweep")
	}
}

// TestWarmShareRelease: a restoring run's wait ends with the recording's
// error, or with its context's, and only the first release counts.
func TestWarmShareRelease(t *testing.T) {
	boom := errors.New("recording failed")
	s := &warmShare{sealed: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait on a canceled context = %v", err)
	}
	s.release(boom)
	s.release(nil)
	if err := s.wait(context.Background()); err != boom {
		t.Fatalf("wait after a failed recording = %v, want %v", err, boom)
	}
	var none *warmShare
	none.release(boom) // a sweep without a tape releases nothing
	if none.mode(3) != sim.WarmClassic {
		t.Fatal("a sweep without a tape must warm every run classically")
	}
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
