package backend

import (
	"context"
	"fmt"
	"sync"
	"time"

	"datamime/internal/datagen"
	"datamime/internal/harness"
	"datamime/internal/profile"
	"datamime/internal/telemetry"
	"datamime/internal/workload"
)

// LocalBackend evaluates requests in-process with the same profiler the
// search loop would run, resolving generators and workloads from its
// registry. It backs the dispatcher's fleet fallback on the coordinator and
// the actual simulation work inside cmd/datamime-worker. Because the
// profiler is bit-deterministic and the spec excludes all
// speed-not-substance knobs, a LocalBackend evaluation is byte-identical to
// the in-process path for the same request.
type LocalBackend struct {
	// ProfileWorkers bounds intra-profile parallelism (the way-curve
	// sweep) for every evaluation; 0/1 runs sweeps serially. Like
	// profile.Profiler.Workers, it can never change measured values.
	ProfileWorkers int
	// Budget, when non-nil, caps concurrent simulations across all
	// evaluations this backend runs (shared with any other profilers).
	Budget *profile.Budget

	mu   sync.Mutex
	gens map[string]datagen.Generator
}

// NewLocalBackend builds a local backend with the built-in Table III
// generators plus any extras registered.
func NewLocalBackend(extra ...datagen.Generator) *LocalBackend {
	l := &LocalBackend{gens: make(map[string]datagen.Generator)}
	for _, g := range datagen.All() {
		l.gens[g.Name] = g
	}
	for _, g := range extra {
		l.gens[g.Name] = g
	}
	return l
}

// Register adds (or replaces) a generator in the backend's registry.
func (l *LocalBackend) Register(g datagen.Generator) {
	l.mu.Lock()
	l.gens[g.Name] = g
	l.mu.Unlock()
}

// Name implements EvalBackend.
func (l *LocalBackend) Name() string { return "local" }

// Health implements EvalBackend; the in-process backend is always healthy.
func (l *LocalBackend) Health(ctx context.Context) error { return nil }

// Capacity implements EvalBackend; local evaluation is bounded only by the
// shared Budget, so the backend itself advertises no limit.
func (l *LocalBackend) Capacity() int { return 0 }

// resolve builds the benchmark a request describes.
func (l *LocalBackend) resolve(req EvalRequest) (workload.Benchmark, error) {
	switch req.Kind {
	case KindCandidate:
		l.mu.Lock()
		g, ok := l.gens[req.Generator]
		l.mu.Unlock()
		if !ok {
			return workload.Benchmark{}, fmt.Errorf("backend: unknown generator %q", req.Generator)
		}
		return g.Benchmark(req.Params), nil
	case KindTarget:
		w, err := harness.WorkloadByName(req.Workload)
		if err != nil {
			return workload.Benchmark{}, err
		}
		return w.Target, nil
	default:
		return workload.Benchmark{}, fmt.Errorf("backend: unknown request kind %q", req.Kind)
	}
}

// Evaluate implements EvalBackend: reconstruct the profiler from the spec,
// build the benchmark, and measure.
func (l *LocalBackend) Evaluate(ctx context.Context, req EvalRequest) (EvalResult, error) {
	if err := req.Validate(); err != nil {
		return EvalResult{}, err
	}
	pr, err := req.Profiler.Profiler()
	if err != nil {
		return EvalResult{}, err
	}
	pr.Workers = l.ProfileWorkers
	pr.Budget = l.Budget
	// Trace context: a TraceID asks for this evaluation's telemetry back.
	// The collector hangs off the reconstructed profiler only — it observes
	// the measurement, it cannot influence it.
	var col *telemetry.Collector
	if req.TraceID != "" {
		col = &telemetry.Collector{}
		pr.Telemetry = telemetry.New(telemetry.Options{OnEvent: col.Record})
	}
	bench, err := l.resolve(req)
	if err != nil {
		return EvalResult{}, err
	}
	start := time.Now()
	p, err := pr.ProfileContext(ctx, bench, req.Seed)
	if err != nil {
		return EvalResult{}, err
	}
	res := EvalResult{
		Profile:    p,
		Worker:     l.Name(),
		DurationNS: time.Since(start).Nanoseconds(),
	}
	if col != nil {
		res.Spans = wireSpans(col.Events())
	}
	return res, nil
}

// wireSpans converts captured telemetry spans to their wire form, capped at
// MaxWireSpans (earliest kept).
func wireSpans(events []telemetry.Event) []WireSpan {
	var out []WireSpan
	for _, ev := range events {
		if ev.Type != telemetry.TypeSpan {
			continue
		}
		out = append(out, WireSpan{
			Phase:  ev.Phase,
			Iter:   ev.Iter,
			DurNS:  ev.DurNS,
			TimeNS: ev.TimeNS,
			Attrs:  ev.Attrs,
		})
		if len(out) >= MaxWireSpans {
			break
		}
	}
	return out
}

var _ EvalBackend = (*LocalBackend)(nil)
