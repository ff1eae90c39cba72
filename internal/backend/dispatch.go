package backend

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// FleetEvent reports fleet churn: a worker joining or leaving. The
// coordinator broadcasts these into running jobs' telemetry (as
// worker.register / worker.deregister instants) and its logs.
type FleetEvent struct {
	// Type is "register" or "deregister".
	Type string
	// ID is the dispatcher-assigned stable worker ID.
	ID int
	// Worker is the worker's display name.
	Worker string
	// Reason explains a deregistration ("withdrawn", or the last error).
	Reason string
}

// Fleet event types.
const (
	FleetRegister   = "register"
	FleetDeregister = "deregister"
)

// dispatchRetries is the number of additional remote attempts after a
// failed one, each on the then-least-loaded worker, before an evaluation
// falls back to the local backend.
const dispatchRetries = 2

// failureLimit deregisters a worker after this many consecutive failed
// evaluations or health probes. ErrBusy and ErrRequest do not count.
const failureLimit = 3

// attemptTimeout bounds one remote evaluation attempt: simulator
// evaluations are seconds to minutes, and a hung worker must not hang the
// search.
const attemptTimeout = 5 * time.Minute

// backoffBase is the first retry's backoff delay, doubling per attempt up
// to maxBackoff.
const (
	backoffBase = 50 * time.Millisecond
	maxBackoff  = 2 * time.Second
)

// maxQueue is the admission limit: evaluations waiting for a remote slot
// beyond it are shed to the local backend instead of queueing.
const maxQueue = 64

// DispatcherConfig configures a Dispatcher. Local is required.
type DispatcherConfig struct {
	// Local is the fallback: evaluations land here when no workers are
	// registered, the admission queue is full, or every remote attempt
	// failed. It is what guarantees a job never dies with the fleet.
	Local NamedEvaluator
	// OnEvent, when non-nil, receives fleet churn events. Called without
	// dispatcher locks held.
	OnEvent func(FleetEvent)
}

// DispatchCounters snapshots the dispatcher's lifetime counters.
type DispatchCounters struct {
	// RemoteEvals and LocalEvals count evaluations by serving side.
	RemoteEvals uint64
	LocalEvals  uint64
	// Retries counts failed remote attempts that were re-dispatched.
	Retries uint64
	// Fallbacks counts evaluations served locally after remote attempts
	// failed; Sheds counts evaluations sent local by admission control
	// without trying the fleet.
	Fallbacks uint64
	Sheds     uint64
	// Registered and Deregistered count fleet churn events.
	Registered   uint64
	Deregistered uint64
}

// WorkerInfo is one registered worker's public state.
type WorkerInfo struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	URL      string `json:"url,omitempty"`
	Capacity int    `json:"capacity"`
	// Inflight is the dispatcher's count of evaluations it has in flight
	// on the worker — what it routes on. The worker's own load, from every
	// coordinator, is its datamime_worker_inflight.
	Inflight int    `json:"inflight"`
	Healthy  bool   `json:"healthy"`
	Evals    uint64 `json:"evals"`
	Failures int    `json:"consecutive_failures"`
	// Version is the worker's self-reported build version (heartbeat or
	// health probe) — the fleet's version-skew signal.
	Version string `json:"version,omitempty"`
	// LastSeenAgeMS is how long ago the worker last proved liveness
	// (registration, heartbeat, successful probe, or served evaluation).
	LastSeenAgeMS int64 `json:"last_seen_age_ms"`
}

// workerState is the dispatcher's bookkeeping for one registered worker.
type workerState struct {
	id       int
	backend  EvalBackend
	url      string // dedup key for URL-registered workers ("" for direct backends)
	inflight int
	fails    int
	healthy  bool
	evals    uint64
	lastSeen time.Time // last registration/heartbeat/probe/eval success
}

func (w *workerState) capacity() int {
	if c := w.backend.Capacity(); c > 0 {
		return c
	}
	return 1
}

// Dispatcher shards evaluations across a fleet of registered workers:
// least-loaded healthy worker first, per-attempt timeout, exponential
// backoff between retries, failure-count-based eviction, and admission
// control that sheds overload to the local backend. It is an Evaluator
// itself, so a search evaluator needs no special casing — with an empty
// fleet it degenerates to the local backend.
//
// Dispatch order is load- and timing-dependent and therefore NOT
// deterministic; determinism lives one level down (every backend returns
// bit-identical profiles), which is why routing can be adaptive without
// perturbing results.
type Dispatcher struct {
	cfg  DispatcherConfig
	mu   sync.Mutex
	cond *sync.Cond

	workers []*workerState
	nextID  int
	waiting int

	remoteEvals  atomic.Uint64
	localEvals   atomic.Uint64
	retries      atomic.Uint64
	fallbacks    atomic.Uint64
	sheds        atomic.Uint64
	registered   atomic.Uint64
	deregistered atomic.Uint64
}

// NewDispatcher builds a dispatcher over the given local fallback.
func NewDispatcher(cfg DispatcherConfig) *Dispatcher {
	if cfg.Local == nil {
		panic("backend: Dispatcher requires a local fallback backend")
	}
	d := &Dispatcher{cfg: cfg}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// Register adds a worker backend to the fleet and returns its stable ID.
// Registering a backend whose Name matches an existing worker refreshes
// that worker (marks it healthy, clears its failure count) instead of
// duplicating it — worker re-announcements are heartbeats.
func (d *Dispatcher) Register(b EvalBackend) int {
	return d.registerWith(b, "")
}

// RegisterURL adds (or refreshes) a remote worker by registration message.
// Workers are deduplicated by URL.
func (d *Dispatcher) RegisterURL(reg WorkerRegistration) (int, error) {
	if reg.URL == "" {
		return 0, errors.New("backend: registration without a url")
	}
	if reg.Protocol != 0 && reg.Protocol != ProtocolVersion {
		return 0, errors.New("backend: registration protocol version mismatch")
	}
	rb := NewRemoteBackend(reg.URL, reg.Name)
	if reg.Capacity > 0 {
		rb.SetCapacity(reg.Capacity)
	}
	rb.SetVersion(reg.Version)
	return d.registerWith(rb, rb.URL()), nil
}

// registerWith implements Register/RegisterURL; dedupKey "" dedups by name.
func (d *Dispatcher) registerWith(b EvalBackend, dedupKey string) int {
	d.mu.Lock()
	for _, w := range d.workers {
		same := (dedupKey != "" && w.url == dedupKey) ||
			(dedupKey == "" && w.url == "" && w.backend.Name() == b.Name())
		if same {
			// Heartbeat re-registration: refresh liveness, capacity, and
			// version.
			w.healthy = true
			w.fails = 0
			w.lastSeen = time.Now()
			if rb, ok := w.backend.(*RemoteBackend); ok {
				if c := b.Capacity(); c > 0 {
					rb.SetCapacity(c)
				}
				if nrb, ok := b.(*RemoteBackend); ok {
					rb.SetVersion(nrb.Version())
				}
			}
			id := w.id
			d.cond.Broadcast()
			d.mu.Unlock()
			return id
		}
	}
	w := &workerState{id: d.nextID, backend: b, url: dedupKey, healthy: true, lastSeen: time.Now()}
	d.nextID++
	d.workers = append(d.workers, w)
	d.registered.Add(1)
	d.cond.Broadcast()
	d.mu.Unlock()
	d.emit(FleetEvent{Type: FleetRegister, ID: w.id, Worker: b.Name()})
	return w.id
}

// Deregister removes a worker by name or URL. Reason lands in the fleet
// event.
func (d *Dispatcher) Deregister(nameOrURL, reason string) bool {
	d.mu.Lock()
	for i, w := range d.workers {
		if w.backend.Name() == nameOrURL || (w.url != "" && w.url == nameOrURL) {
			d.workers = append(d.workers[:i], d.workers[i+1:]...)
			d.deregistered.Add(1)
			d.cond.Broadcast()
			d.mu.Unlock()
			d.emit(FleetEvent{Type: FleetDeregister, ID: w.id, Worker: w.backend.Name(), Reason: reason})
			return true
		}
	}
	d.mu.Unlock()
	return false
}

// HasWorkers reports whether any worker is registered (healthy or not).
func (d *Dispatcher) HasWorkers() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.workers) > 0
}

// Workers snapshots the fleet, in registration order.
func (d *Dispatcher) Workers() []WorkerInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := time.Now()
	out := make([]WorkerInfo, 0, len(d.workers))
	for _, w := range d.workers {
		info := WorkerInfo{
			ID:       w.id,
			Name:     w.backend.Name(),
			URL:      w.url,
			Capacity: w.capacity(),
			Inflight: w.inflight,
			Healthy:  w.healthy,
			Evals:    w.evals,
			Failures: w.fails,
		}
		if !w.lastSeen.IsZero() {
			info.LastSeenAgeMS = now.Sub(w.lastSeen).Milliseconds()
		}
		if rb, ok := w.backend.(*RemoteBackend); ok {
			info.Version = rb.Version()
		}
		out = append(out, info)
	}
	return out
}

// QueueDepth is the number of evaluations currently waiting for a remote
// slot — the admission-control gauge.
func (d *Dispatcher) QueueDepth() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.waiting
}

// Counters snapshots the dispatch counters.
func (d *Dispatcher) Counters() DispatchCounters {
	return DispatchCounters{
		RemoteEvals:  d.remoteEvals.Load(),
		LocalEvals:   d.localEvals.Load(),
		Retries:      d.retries.Load(),
		Fallbacks:    d.fallbacks.Load(),
		Sheds:        d.sheds.Load(),
		Registered:   d.registered.Load(),
		Deregistered: d.deregistered.Load(),
	}
}

// CheckHealth probes every registered worker, marking it healthy or
// unhealthy and deregistering it once its consecutive-failure count crosses
// the limit. The coordinator runs this on a timer.
func (d *Dispatcher) CheckHealth(ctx context.Context) {
	d.mu.Lock()
	snapshot := append([]*workerState(nil), d.workers...)
	d.mu.Unlock()
	for _, w := range snapshot {
		if ctx.Err() != nil {
			return
		}
		hctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		err := w.backend.Health(hctx)
		cancel()
		if err == nil {
			d.mu.Lock()
			w.healthy = true
			w.fails = 0
			w.lastSeen = time.Now()
			d.cond.Broadcast()
			d.mu.Unlock()
			continue
		}
		d.noteFailure(w, err.Error())
	}
}

// noteFailure records one failed evaluation or probe against a worker,
// marking it unhealthy and evicting it at the failure limit.
func (d *Dispatcher) noteFailure(w *workerState, reason string) {
	var ev *FleetEvent
	d.mu.Lock()
	w.fails++
	w.healthy = false
	if w.fails >= failureLimit {
		for i, cur := range d.workers {
			if cur == w {
				d.workers = append(d.workers[:i], d.workers[i+1:]...)
				d.deregistered.Add(1)
				ev = &FleetEvent{Type: FleetDeregister, ID: w.id, Worker: w.backend.Name(), Reason: reason}
				break
			}
		}
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	if ev != nil {
		d.emit(*ev)
	}
}

func (d *Dispatcher) emit(ev FleetEvent) {
	if d.cfg.OnEvent != nil {
		d.cfg.OnEvent(ev)
	}
}

// Sentinel acquire outcomes that route an evaluation to the local backend.
var (
	errNoRemote  = errors.New("backend: no healthy workers")
	errSaturated = errors.New("backend: dispatch queue is full")
)

// acquire blocks until a healthy worker has a free slot (incrementing its
// in-flight count), the fleet empties, the admission queue fills, or ctx is
// done.
func (d *Dispatcher) acquire(ctx context.Context) (*workerState, error) {
	// Waiting happens inside cond.Wait, which a context cannot interrupt;
	// an AfterFunc that takes the lock before broadcasting guarantees the
	// wakeup cannot slip between a waiter's ctx check and its Wait.
	stop := context.AfterFunc(ctx, func() {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	})
	defer stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var pick *workerState
		healthy := false
		for _, w := range d.workers {
			if !w.healthy {
				continue
			}
			healthy = true
			if w.inflight >= w.capacity() {
				continue
			}
			if pick == nil || w.inflight < pick.inflight {
				pick = w
			}
		}
		if pick != nil {
			pick.inflight++
			return pick, nil
		}
		if !healthy {
			return nil, errNoRemote
		}
		if d.waiting >= maxQueue {
			return nil, errSaturated
		}
		d.waiting++
		d.cond.Wait()
		d.waiting--
	}
}

// release returns a worker's slot and records the attempt's outcome.
func (d *Dispatcher) release(w *workerState, ok bool) {
	d.mu.Lock()
	w.inflight--
	if ok {
		w.fails = 0
		w.healthy = true
		w.evals++
		w.lastSeen = time.Now()
	}
	d.cond.Broadcast()
	d.mu.Unlock()
}

// Evaluate implements Evaluator: dispatch to the least-loaded healthy
// worker, retry with backoff on another worker after a failure, and fall
// back to the local backend when the fleet cannot serve or refuses the
// request as unresolvable (ErrRequest — not retried). The returned
// result carries routing metadata (WorkerID/Retries/Remote) for telemetry.
func (d *Dispatcher) Evaluate(ctx context.Context, req EvalRequest) (EvalResult, error) {
	req.Version = ProtocolVersion
	failed := 0
	shed := false
	for attempt := 0; attempt <= dispatchRetries; attempt++ {
		w, err := d.acquire(ctx)
		if err == errNoRemote {
			break
		}
		if err == errSaturated {
			shed = true
			break
		}
		if err != nil {
			return EvalResult{}, err
		}
		if attempt > 0 {
			d.retries.Add(1)
		}
		actx, cancel := context.WithTimeout(ctx, attemptTimeout)
		res, err := w.backend.Evaluate(actx, req)
		cancel()
		d.release(w, err == nil)
		if err == nil {
			res.WorkerID = w.id
			res.Retries = failed
			res.Remote = true
			if res.Worker == "" {
				res.Worker = w.backend.Name()
			}
			d.remoteEvals.Add(1)
			return res, nil
		}
		if ctx.Err() != nil {
			return EvalResult{}, ctx.Err()
		}
		failed++
		if errors.Is(err, ErrRequest) {
			// The request is at fault, not the worker, and every other
			// worker would refuse the same bytes. The local backend holds
			// the coordinator's own registry (it may know a generator the
			// fleet lacks), so it gets the last word.
			break
		}
		if !errors.Is(err, ErrBusy) {
			// A saturated worker is healthy; anything else counts toward
			// eviction.
			d.noteFailure(w, err.Error())
		}
		if attempt < dispatchRetries {
			if err := sleepCtx(ctx, backoff(attempt)); err != nil {
				return EvalResult{}, err
			}
		}
	}
	if shed {
		d.sheds.Add(1)
	}
	res, err := d.cfg.Local.Evaluate(ctx, req)
	if err != nil {
		return EvalResult{}, err
	}
	res.WorkerID = -1
	res.Retries = failed
	res.Remote = false
	if res.Worker == "" {
		res.Worker = d.cfg.Local.Name()
	}
	d.localEvals.Add(1)
	if failed > 0 {
		d.fallbacks.Add(1)
	}
	return res, nil
}

// backoff returns the delay before retry attempt+1: exponential from
// backoffBase, capped at maxBackoff. It doubles only while under the cap,
// so no attempt count can overflow the Duration into a negative delay,
// which would not wait at all.
func backoff(attempt int) time.Duration {
	delay := backoffBase
	for ; attempt > 0 && delay < maxBackoff; attempt-- {
		delay *= 2
	}
	return min(delay, maxBackoff)
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

var _ Evaluator = (*Dispatcher)(nil)
