package profile

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"datamime/internal/sim"
	"datamime/internal/telemetry"
	"datamime/internal/trace"
	"datamime/internal/workload"
)

// TestParallelProfileMatchesSerial is the tentpole determinism guarantee:
// the worker-pool sweep must produce profiles bit-for-bit identical to the
// serial order, for any worker count, with or without a shared budget. Run
// under -race this also proves no machine (and hence no SetLLCPartition
// call) is ever shared across concurrent sweep workers.
func TestParallelProfileMatchesSerial(t *testing.T) {
	b := kvBenchmark(256, 60_000)
	serial := fastProfiler()
	want, err := serial.Profile(b, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		pr := fastProfiler()
		pr.Workers = workers
		pr.disableWorkerClamp = true // exercise the pool path even on 1-CPU hosts
		got, err := pr.Profile(b, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d profile diverged from serial", workers)
		}
	}
	// A shared budget smaller than the worker count throttles but must not
	// change results either.
	pr := fastProfiler()
	pr.Workers = 4
	pr.disableWorkerClamp = true
	pr.Budget = NewBudget(2)
	got, err := pr.Profile(b, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("budgeted parallel profile diverged from serial")
	}
}

// TestWorkerClampToGOMAXPROCS: asking for more workers than the host can
// schedule silently clamps the pool to runtime.GOMAXPROCS(0), the run
// telemetry records the effective count (not the requested one), and the
// clamped sweep still matches the serial profile bit-for-bit.
func TestWorkerClampToGOMAXPROCS(t *testing.T) {
	b := kvBenchmark(256, 60_000)
	want, err := fastProfiler().Profile(b, 7)
	if err != nil {
		t.Fatal(err)
	}

	var collector telemetry.Collector
	pr := fastProfiler()
	jobs := 1 + len(pr.curveWays())
	pr.Workers = runtime.GOMAXPROCS(0) + jobs + 8 // absurd ask: clamp must engage
	pr.Telemetry = telemetry.New(telemetry.Options{OnEvent: collector.Record})
	got, err := pr.Profile(b, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("clamped profile diverged from serial")
	}

	effective := runtime.GOMAXPROCS(0)
	if jobs < effective {
		effective = jobs
	}
	found := false
	for _, ev := range collector.Events() {
		if ev.Type != telemetry.TypeSpan || ev.Phase != telemetry.PhaseProfileRun {
			continue
		}
		found = true
		if w, ok := ev.Attrs["workers"]; !ok || int(w) != effective {
			t.Errorf("run span workers attr = %v, want effective count %d (requested %d)", w, effective, pr.Workers)
		}
	}
	if !found {
		t.Fatal("no profile.run span recorded")
	}
}

// TestParallelProfileCancellation: a canceled context aborts the parallel
// sweep with the context's error — also one canceled mid-sweep, which hands
// back every Budget token, the first wave's included.
func TestParallelProfileCancellation(t *testing.T) {
	pr := fastProfiler()
	pr.Workers = 4
	pr.disableWorkerClamp = true
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pr.ProfileContext(ctx, kvBenchmark(256, 60_000), 7); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	const tokens = 4
	pr.CurvePoints = 12
	pr.Budget = NewBudget(tokens)
	ctx, cancel = context.WithCancel(context.Background())
	b := kvBenchmark(256, 60_000)
	newServer := b.NewServer
	b.NewServer = func(l *trace.CodeLayout, seed uint64) workload.Server {
		cancel()
		return newServer(l, seed)
	}
	if _, err := pr.ProfileContext(ctx, b, 7); err != context.Canceled {
		t.Fatalf("mid-sweep cancel: err = %v, want context.Canceled", err)
	}
	if free := pr.Budget.TryAcquire(tokens); free != tokens {
		t.Fatalf("%d of %d budget tokens free after a canceled sweep", free, tokens)
	}
}

// TestCurveWaysOversizedPoints guards the sweep's job list: asking for more
// curve points than the machine has ways must yield strictly increasing,
// deduplicated allocations — never a repeated (ways, seed) job.
func TestCurveWaysOversizedPoints(t *testing.T) {
	pr := fastProfiler()
	for _, points := range []int{13, 24, 100} {
		pr.CurvePoints = points
		ways := pr.curveWays()
		if len(ways) == 0 || ways[0] != 1 {
			t.Fatalf("points=%d: ways %v must start at 1", points, ways)
		}
		if last := ways[len(ways)-1]; last != pr.Machine.LLCWays() {
			t.Fatalf("points=%d: ways %v must end at the full cache", points, ways)
		}
		for i := 1; i < len(ways); i++ {
			if ways[i] <= ways[i-1] {
				t.Fatalf("points=%d: ways %v not strictly increasing", points, ways)
			}
		}
	}
}

// TestLLCPartitionIsolation guards the worker-local-machine invariant
// directly: SetLLCPartition is only ever applied to a machine owned by one
// worker, so partitioning and running one machine while others run
// concurrently at different allocations must reproduce each run's serial
// result exactly. Run under -race this also catches any future change that
// lets sweep workers share a machine.
func TestLLCPartitionIsolation(t *testing.T) {
	b := kvBenchmark(256, 60_000)
	pr := fastProfiler()
	allocs := []int{1, 2, pr.Machine.LLCWays()}

	ref := make([]runResult, len(allocs))
	for i, ways := range allocs {
		m := sim.NewMachine(pr.Machine, pr.WindowCycles)
		ref[i], _ = pr.runOn(m, b, 7, runJob{ways: ways, windows: pr.CurveWindows}, sim.WarmClassic, nil, nil)
	}

	got := make([]runResult, len(allocs))
	var wg sync.WaitGroup
	for i, ways := range allocs {
		wg.Add(1)
		go func(i, ways int) {
			defer wg.Done()
			m := sim.NewMachine(pr.Machine, pr.WindowCycles)
			got[i], _ = pr.runOn(m, b, 7, runJob{ways: ways, windows: pr.CurveWindows}, sim.WarmClassic, nil, nil)
		}(i, ways)
	}
	wg.Wait()

	for i, ways := range allocs {
		if !reflect.DeepEqual(got[i], ref[i]) {
			t.Errorf("ways=%d: concurrent run diverged from serial", ways)
		}
	}
}

// TestBudgetCapsConcurrency drives a budget from more goroutines than
// tokens and checks in-flight work never exceeds the cap.
func TestBudgetCapsConcurrency(t *testing.T) {
	const cap, workers, rounds = 3, 10, 50
	b := NewBudget(cap)
	if b.Cap() != cap {
		t.Fatalf("Cap() = %d", b.Cap())
	}
	var inFlight, peak atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b.Acquire()
				n := inFlight.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				inFlight.Add(-1)
				b.Release()
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > cap {
		t.Fatalf("peak concurrency %d exceeded budget %d", p, cap)
	}
	// Nil budgets are inert.
	var nb *Budget
	nb.Acquire()
	nb.Release()
	if nb.Cap() != 0 {
		t.Fatal("nil budget has nonzero cap")
	}
}
