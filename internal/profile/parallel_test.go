package profile

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"datamime/internal/trace"
	"datamime/internal/workload"
)

// TestParallelProfileMatchesSerial is the determinism guarantee of
// candidate-level parallelism: profiles run concurrently — sharing the
// machine free list, with or without a budget narrower than them — are bit
// for bit the serial profile. Run under -race this also proves no machine
// is ever shared by concurrent profiles.
func TestParallelProfileMatchesSerial(t *testing.T) {
	b := kvBenchmark(256, 60_000)
	want, err := fastProfiler().Profile(b, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []*Budget{nil, NewBudget(2)} {
		pr := fastProfiler()
		pr.Budget = budget
		const profiles = 4
		got := make([]*Profile, profiles)
		errs := make([]error, profiles)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = pr.Profile(b, 7)
			}(i)
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("budget %d: concurrent profile %d diverged from serial", budget.Cap(), i)
			}
		}
	}
}

// TestParallelProfileCancellation: a canceled context aborts the profile
// with the context's error — also one canceled mid-pass, which hands its
// Budget token back.
func TestParallelProfileCancellation(t *testing.T) {
	pr := fastProfiler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pr.ProfileContext(ctx, kvBenchmark(256, 60_000), 7); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	const tokens = 2
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
		t.Fatalf("mid-pass cancel: err = %v, want context.Canceled", err)
	}
	for i := 0; i < tokens; i++ {
		select {
		case <-pr.Budget.slots:
		default:
			t.Fatalf("%d of %d budget tokens free after a canceled profile", i, tokens)
		}
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

// TestLLCPartitionIsolation: profiles of one machine configuration at
// different allocations, run concurrently, take their machines from one
// free list and must still reproduce each one's serial result exactly —
// a machine, and the lanes it carries, belong to one profile at a time.
func TestLLCPartitionIsolation(t *testing.T) {
	b := kvBenchmark(256, 60_000)
	points := []int{1, 3, 12}
	profiler := func(points int) *Profiler {
		pr := fastProfiler()
		pr.CurvePoints = points
		return pr
	}
	ref := make([]*Profile, len(points))
	for i, n := range points {
		var err error
		if ref[i], err = profiler(n).Profile(b, 7); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*Profile, len(points))
	var wg sync.WaitGroup
	for i, n := range points {
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			got[i], _ = profiler(n).Profile(b, 7)
		}(i, n)
	}
	wg.Wait()
	for i, n := range points {
		if !reflect.DeepEqual(got[i], ref[i]) {
			t.Errorf("points=%d: concurrent profile diverged from serial", n)
		}
	}
}

// TestBudgetCapsConcurrency drives a budget from more goroutines than
// tokens and checks in-flight work never exceeds the cap, each holder in a
// slot of its own.
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
				slot := b.Acquire()
				n := inFlight.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				if slot < 0 || slot >= cap {
					t.Errorf("slot %d outside [0,%d)", slot, cap)
				}
				inFlight.Add(-1)
				b.Release(slot)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > cap {
		t.Fatalf("peak concurrency %d exceeded budget %d", p, cap)
	}
	// Nil budgets are inert.
	var nb *Budget
	nb.Release(nb.Acquire())
	if nb.Cap() != 0 {
		t.Fatal("nil budget has nonzero cap")
	}
}
