package backend

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datamime/internal/profile"
)

// funcBackend is a scriptable fake EvalBackend for dispatcher tests.
type funcBackend struct {
	name     string
	capacity int
	eval     func(ctx context.Context, req EvalRequest) (EvalResult, error)
	health   func(ctx context.Context) error
	evals    atomic.Int64
}

func (f *funcBackend) Name() string { return f.name }
func (f *funcBackend) Evaluate(ctx context.Context, req EvalRequest) (EvalResult, error) {
	f.evals.Add(1)
	return f.eval(ctx, req)
}
func (f *funcBackend) Health(ctx context.Context) error {
	if f.health != nil {
		return f.health(ctx)
	}
	return nil
}
func (f *funcBackend) Capacity() int { return f.capacity }

func okBackend(name string) *funcBackend {
	return &funcBackend{
		name:     name,
		capacity: 1,
		eval: func(ctx context.Context, req EvalRequest) (EvalResult, error) {
			return EvalResult{Profile: &profile.Profile{Benchmark: name}}, nil
		},
	}
}

func failBackend(name string) *funcBackend {
	return &funcBackend{
		name:     name,
		capacity: 1,
		eval: func(ctx context.Context, req EvalRequest) (EvalResult, error) {
			return EvalResult{}, errors.New("synthetic worker failure")
		},
	}
}

// newTestDispatcher builds a dispatcher over local. Its retries back off
// for real: backoffBase, then twice that.
func newTestDispatcher(local NamedEvaluator, opts ...func(*DispatcherConfig)) *Dispatcher {
	cfg := DispatcherConfig{Local: local}
	for _, o := range opts {
		o(&cfg)
	}
	return NewDispatcher(cfg)
}

func dispatchRequest() EvalRequest {
	return EvalRequest{
		Version:  ProtocolVersion,
		Kind:     KindCandidate,
		Params:   []float64{1},
		Profiler: ProfilerSpec{Machine: "broadwell"},
	}
}

// TestDispatchEmptyFleetGoesLocal: with no workers the dispatcher is the
// local backend, with routing metadata saying so.
func TestDispatchEmptyFleetGoesLocal(t *testing.T) {
	local := okBackend("local")
	d := newTestDispatcher(local)
	res, err := d.Evaluate(context.Background(), dispatchRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Remote || res.WorkerID != -1 || res.Retries != 0 {
		t.Fatalf("routing = %+v", res)
	}
	c := d.Counters()
	if c.LocalEvals != 1 || c.RemoteEvals != 0 || c.Fallbacks != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestDispatchRemote: a healthy worker serves, metadata identifies it.
func TestDispatchRemote(t *testing.T) {
	local := okBackend("local")
	d := newTestDispatcher(local)
	id := d.Register(okBackend("w0"))
	res, err := d.Evaluate(context.Background(), dispatchRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Remote || res.WorkerID != id || res.Worker != "w0" {
		t.Fatalf("routing = %+v", res)
	}
	if local.evals.Load() != 0 {
		t.Fatal("local backend touched despite a healthy fleet")
	}
	if c := d.Counters(); c.RemoteEvals != 1 || c.Registered != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestDispatchFailureFallback: a failing single-worker fleet degrades to
// the local backend without failing the evaluation. The failed worker is
// marked unhealthy (so subsequent attempts skip it) but not yet evicted —
// eviction needs failureLimit consecutive failed probes (see
// TestDispatchHealthProbeEviction).
func TestDispatchFailureFallback(t *testing.T) {
	var events []FleetEvent
	var evmu sync.Mutex
	local := okBackend("local")
	d := newTestDispatcher(local, func(cfg *DispatcherConfig) {
		cfg.OnEvent = func(ev FleetEvent) {
			evmu.Lock()
			events = append(events, ev)
			evmu.Unlock()
		}
	})
	bad := failBackend("bad")
	d.Register(bad)

	res, err := d.Evaluate(context.Background(), dispatchRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Remote || res.WorkerID != -1 || res.Retries != 1 {
		t.Fatalf("routing = %+v", res)
	}
	if res.Profile.Benchmark != "local" {
		t.Fatal("fallback did not serve from local")
	}
	if bad.evals.Load() != 1 {
		t.Fatalf("bad worker attempts = %d, want 1 (unhealthy after the first)", bad.evals.Load())
	}
	c := d.Counters()
	if c.Fallbacks != 1 || c.LocalEvals != 1 || c.Deregistered != 0 {
		t.Fatalf("counters = %+v", c)
	}
	ws := d.Workers()
	if len(ws) != 1 || ws[0].Healthy || ws[0].Failures != 1 {
		t.Fatalf("workers = %+v", ws)
	}
	evmu.Lock()
	defer evmu.Unlock()
	if len(events) != 1 || events[0].Type != FleetRegister {
		t.Fatalf("events = %+v", events)
	}
}

// TestDispatchRequestFaultGoesLocal: a worker that refuses a request as
// unresolvable is not at fault. The dispatcher tries no second worker, books
// no failure, and hands the request to the local backend — which holds the
// coordinator's own registry and may know what the fleet does not.
func TestDispatchRequestFaultGoesLocal(t *testing.T) {
	refuse := func(name string) *funcBackend {
		return &funcBackend{name: name, capacity: 1,
			eval: func(ctx context.Context, req EvalRequest) (EvalResult, error) {
				return EvalResult{}, fmt.Errorf("%w: refused by %s: unknown generator", ErrRequest, name)
			}}
	}
	local := okBackend("local")
	d := newTestDispatcher(local)
	w0, w1 := refuse("w0"), refuse("w1")
	d.Register(w0)
	d.Register(w1)

	res, err := d.Evaluate(context.Background(), dispatchRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Remote || res.Retries == 0 || res.Worker != "local" {
		t.Fatalf("routing = %+v, want the local fallback", res)
	}
	if got := w0.evals.Load() + w1.evals.Load(); got != 1 {
		t.Fatalf("%d workers saw the request, want 1 (no retry on a second)", got)
	}
	if c := d.Counters(); c.Retries != 0 || c.Fallbacks != 1 || c.LocalEvals != 1 {
		t.Fatalf("counters = %+v", c)
	}
	for _, w := range d.Workers() {
		if !w.Healthy || w.Failures != 0 {
			t.Fatalf("worker booked for the request's fault: %+v", w)
		}
	}
}

// TestDispatchBusyNotEvicted: ErrBusy means "healthy but saturated" — it
// must never count toward eviction.
func TestDispatchBusyNotEvicted(t *testing.T) {
	local := okBackend("local")
	d := newTestDispatcher(local)
	busy := &funcBackend{
		name:     "busy",
		capacity: 1,
		eval: func(ctx context.Context, req EvalRequest) (EvalResult, error) {
			return EvalResult{}, fmt.Errorf("worker saturated: %w", ErrBusy)
		},
	}
	d.Register(busy)
	res, err := d.Evaluate(context.Background(), dispatchRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Remote || res.Retries == 0 {
		t.Fatalf("routing = %+v, want a fallback", res)
	}
	if !d.HasWorkers() {
		t.Fatal("busy worker was evicted")
	}
	ws := d.Workers()
	if len(ws) != 1 || ws[0].Failures != 0 {
		t.Fatalf("workers = %+v", ws)
	}
}

// TestDispatchRetriesSecondWorker: after one worker fails, the retry runs
// on the other and the evaluation stays remote.
func TestDispatchRetriesSecondWorker(t *testing.T) {
	local := okBackend("local")
	d := newTestDispatcher(local)
	bad := failBackend("bad")
	good := okBackend("good")
	// Inflight ties break on registration order, so "bad" takes attempt 0.
	d.Register(bad)
	d.Register(good)

	res, err := d.Evaluate(context.Background(), dispatchRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Remote || res.Worker != "good" || res.Retries != 1 {
		t.Fatalf("routing = %+v", res)
	}
	if local.evals.Load() != 0 {
		t.Fatal("fell back local despite a healthy second worker")
	}
	if c := d.Counters(); c.Retries != 1 || c.RemoteEvals != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestDispatchHeartbeatDedup: re-registering by URL refreshes the worker
// instead of duplicating it, and restores an unhealthy one.
func TestDispatchHeartbeatDedup(t *testing.T) {
	local := okBackend("local")
	d := newTestDispatcher(local)
	reg := WorkerRegistration{URL: "http://w0:9090", Name: "w0", Capacity: 2, Protocol: ProtocolVersion}
	id1, err := d.RegisterURL(reg)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := d.RegisterURL(reg)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("re-announcement allocated a new ID: %d then %d", id1, id2)
	}
	ws := d.Workers()
	if len(ws) != 1 || ws[0].Capacity != 2 || !ws[0].Healthy {
		t.Fatalf("workers = %+v", ws)
	}
	if c := d.Counters(); c.Registered != 1 {
		t.Fatalf("registered = %d, want 1 (heartbeats are not churn)", c.Registered)
	}

	// A version-mismatched registration is rejected outright: a newer
	// worker's, and a version-2 worker's, which profiles as a multi-run
	// sweep.
	bad := reg
	bad.URL = "http://w1:9090"
	for _, v := range []int{ProtocolVersion + 1, 2} {
		bad.Protocol = v
		if _, err := d.RegisterURL(bad); err == nil {
			t.Fatalf("accepted a protocol-%d registration", v)
		}
	}
}

// TestDispatchAdmissionShed: when every slot is busy and the wait queue is
// full, new evaluations shed straight to the local backend instead of
// queueing behind the fleet.
func TestDispatchAdmissionShed(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1+maxQueue)
	blocking := &funcBackend{
		name:     "blocking",
		capacity: 1,
		eval: func(ctx context.Context, req EvalRequest) (EvalResult, error) {
			started <- struct{}{}
			select {
			case <-release:
				return EvalResult{Profile: &profile.Profile{Benchmark: "blocking"}}, nil
			case <-ctx.Done():
				return EvalResult{}, ctx.Err()
			}
		},
	}
	local := okBackend("local")
	d := newTestDispatcher(local)
	d.Register(blocking)

	// Occupy the only remote slot.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := d.Evaluate(context.Background(), dispatchRequest()); err != nil {
			t.Error(err)
		}
	}()
	<-started

	// Fill every queue slot with a waiter.
	for range maxQueue {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.Evaluate(context.Background(), dispatchRequest()); err != nil {
				t.Error(err)
			}
		}()
	}
	waitUntil(t, fmt.Sprintf("queue depth %d", maxQueue), func() bool { return d.QueueDepth() == maxQueue })

	// The next evaluation must shed local immediately.
	res, err := d.Evaluate(context.Background(), dispatchRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Remote || res.Profile.Benchmark != "local" {
		t.Fatalf("shed evaluation routing = %+v", res)
	}
	if c := d.Counters(); c.Sheds != 1 {
		t.Fatalf("sheds = %d, want 1", c.Sheds)
	}

	close(release)
	wg.Wait()
	if c := d.Counters(); c.RemoteEvals != 1+maxQueue {
		t.Fatalf("remote evals = %d, want %d (blocked + queued)", c.RemoteEvals, 1+maxQueue)
	}
}

// TestDispatchHealthProbeEviction: CheckHealth evicts a worker that fails
// failureLimit consecutive probes, and a recovered probe resets the count.
func TestDispatchHealthProbeEviction(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	w := &funcBackend{
		name:     "flappy",
		capacity: 1,
		eval: func(ctx context.Context, req EvalRequest) (EvalResult, error) {
			return EvalResult{Profile: &profile.Profile{}}, nil
		},
		health: func(ctx context.Context) error {
			if healthy.Load() {
				return nil
			}
			return errors.New("probe refused")
		},
	}
	local := okBackend("local")
	d := newTestDispatcher(local)
	d.Register(w)

	ctx := context.Background()
	healthy.Store(false)
	for i := 1; i < failureLimit; i++ {
		d.CheckHealth(ctx)
	}
	healthy.Store(true)
	d.CheckHealth(ctx) // recovery resets the failure count
	healthy.Store(false)
	for i := 1; i < failureLimit; i++ {
		d.CheckHealth(ctx)
	}
	if !d.HasWorkers() {
		t.Fatal("evicted after non-consecutive failures")
	}
	d.CheckHealth(ctx) // the failureLimit-th consecutive failure → eviction
	if d.HasWorkers() {
		t.Fatal("worker survived the probe failure limit")
	}
}

// TestDispatchContextCancel: a canceled context aborts the evaluation
// instead of falling back.
func TestDispatchContextCancel(t *testing.T) {
	local := okBackend("local")
	d := newTestDispatcher(local)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d.Register(okBackend("w0"))
	if _, err := d.Evaluate(ctx, dispatchRequest()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDispatchBackoffIsBounded: for every attempt count, the delay before
// the next attempt is positive, at most maxBackoff, and never shorter than
// the one before; the first is backoffBase. A shift by the attempt count
// overflows the Duration from attempt 38 at a 50ms base, and a negative
// delay retries without waiting.
func TestDispatchBackoffIsBounded(t *testing.T) {
	if got := backoff(0); got != backoffBase {
		t.Fatalf("backoff(0) = %v, want %v", got, backoffBase)
	}
	prev := time.Duration(0)
	for attempt := 0; attempt < 64; attempt++ {
		delay := backoff(attempt)
		if delay <= 0 || delay > maxBackoff || delay < prev {
			t.Fatalf("backoff(%d) = %v after %v, want in (0, %v] and non-decreasing",
				attempt, delay, prev, maxBackoff)
		}
		prev = delay
	}
}
