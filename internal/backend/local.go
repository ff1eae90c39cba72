package backend

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"datamime/internal/datagen"
	"datamime/internal/harness"
	"datamime/internal/profile"
	"datamime/internal/sim"
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
//
// Every profiler it builds (Profiler) — for its own evaluations and for
// whatever else its process profiles — draws on the backend's one budget,
// so the process never runs more profiles at once than the budget holds.
// The budget cannot change a measured value (DESIGN §3c).
type LocalBackend struct {
	// budget caps the simulations in flight across every profiler the
	// backend builds.
	budget *profile.Budget
	// gens is fixed at construction, so lookups need no lock.
	gens map[string]datagen.Generator
}

// NewLocalBackend builds a local backend with the built-in Table III
// generators plus any extras registered, and a budget of GOMAXPROCS
// simulations.
func NewLocalBackend(extra ...datagen.Generator) *LocalBackend {
	l := &LocalBackend{
		budget: profile.NewBudget(runtime.GOMAXPROCS(0)),
		gens:   make(map[string]datagen.Generator),
	}
	for _, g := range datagen.All() {
		l.gens[g.Name] = g
	}
	for _, g := range extra {
		l.gens[g.Name] = g
	}
	return l
}

// Profiler returns a profiler for machine with the evaluation defaults, on
// the backend's budget. Every binary builds its profilers here, so
// everything a process simulates shares one pool of tokens.
func (l *LocalBackend) Profiler(machine sim.MachineConfig) *profile.Profiler {
	pr := profile.New(machine)
	pr.Budget = l.budget
	return pr
}

// Generator looks a generator up in the backend's registry — the one map of
// generators a process holds: the coordinator resolves job specs against the
// registry its fallback evaluates with. The error lists what is registered.
func (l *LocalBackend) Generator(name string) (datagen.Generator, error) {
	if g, ok := l.gens[name]; ok {
		return g, nil
	}
	names := make([]string, 0, len(l.gens))
	for n := range l.gens {
		names = append(names, n)
	}
	sort.Strings(names)
	return datagen.Generator{}, fmt.Errorf("unknown generator %q (registered: %s)", name, strings.Join(names, ", "))
}

// Name implements EvalBackend.
func (l *LocalBackend) Name() string { return "local" }

// Health implements EvalBackend; the in-process backend is always healthy.
func (l *LocalBackend) Health(ctx context.Context) error { return nil }

// Capacity implements EvalBackend; local evaluation is bounded only by the
// shared Budget, so the backend itself advertises no limit.
func (l *LocalBackend) Capacity() int { return 0 }

// resolve is the one place a request's names and numbers are checked: the
// protocol version, the kind, the machine and budgets (the profiler it
// returns passes Validate and carries this backend's width and budget), and
// the generator with a parameter vector of its space's dimension, or the
// workload. Every failure wraps ErrRequest. The benchmark comes back as a
// builder: generation is real work that belongs inside whatever admission
// slot the caller takes after resolving (a Worker answers 400 before taking
// one).
func (l *LocalBackend) resolve(req EvalRequest) (pr *profile.Profiler, build func() workload.Benchmark, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w: %w", ErrRequest, err)
		}
	}()
	if req.Version != ProtocolVersion {
		return nil, nil, fmt.Errorf("protocol version %d, want %d", req.Version, ProtocolVersion)
	}
	// Machines resolve by name to their canonical Table II configurations,
	// so the rebuilt profiler has the coordinator's core.EvalKey — and
	// measurements.
	machine, err := sim.MachineByName(req.Profiler.Machine)
	if err != nil {
		return nil, nil, err
	}
	pr = l.Profiler(machine)
	pr.Spec = req.Profiler.Spec
	if err = pr.Validate(); err != nil {
		return nil, nil, err
	}
	switch req.Kind {
	case KindCandidate:
		g, err := l.Generator(req.Generator)
		if err != nil {
			return nil, nil, err
		}
		if len(req.Params) != g.Space.Dim() {
			return nil, nil, fmt.Errorf("generator %q takes %d params, got %d", g.Name, g.Space.Dim(), len(req.Params))
		}
		for i, v := range req.Params {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, nil, fmt.Errorf("param %d (%s) is %v", i, g.Space.Params[i].Name, v)
			}
		}
		return pr, func() workload.Benchmark { return g.Benchmark(req.Params) }, nil
	case KindTarget:
		w, err := harness.WorkloadByName(req.Workload)
		if err != nil {
			return nil, nil, err
		}
		return pr, func() workload.Benchmark { return w.Target }, nil
	default:
		return nil, nil, fmt.Errorf("unknown request kind %q", req.Kind)
	}
}

// Evaluate implements EvalBackend: resolve the request, then measure it.
func (l *LocalBackend) Evaluate(ctx context.Context, req EvalRequest) (EvalResult, error) {
	pr, build, err := l.resolve(req)
	if err != nil {
		return EvalResult{}, err
	}
	return l.measure(ctx, req, pr, build)
}

// measure runs what resolve returned: build the benchmark and profile it.
func (l *LocalBackend) measure(ctx context.Context, req EvalRequest, pr *profile.Profiler, build func() workload.Benchmark) (EvalResult, error) {
	// Trace context: a TraceID asks for this evaluation's telemetry back.
	// The collector hangs off the reconstructed profiler only — it observes
	// the measurement, it cannot influence it.
	var col *telemetry.Collector
	if req.TraceID != "" {
		col = &telemetry.Collector{}
		pr.Telemetry = telemetry.New(telemetry.Options{OnEvent: col.Record})
	}
	bench := build()
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

// wireSpans converts captured telemetry spans to their wire form: one
// profile's profile.sim span, and its budget.wait span when the profiler
// shares a Budget.
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
	}
	return out
}

var _ EvalBackend = (*LocalBackend)(nil)
