// Package backend is Datamime's distributed evaluation plane: an
// EvalBackend abstraction over "measure one candidate", with a LocalBackend
// that wraps the in-process profiler and a RemoteBackend that speaks a
// versioned JSON-over-HTTP protocol to cmd/datamime-worker processes. A
// Dispatcher shards evaluations across a registered worker fleet with
// retry, timeout, and backoff, always falling back to local evaluation, so
// a job never dies with its fleet. A Worker serves the protocol; the one
// evaluation cache is the coordinator's LRU, looked up before dispatch.
//
// The load-bearing design constraint is determinism: a profile is a pure
// function of (generator, params, seed, machine, profiler budget) — exactly
// the ingredients of core.EvalKey — and the simulator is bit-deterministic,
// so a conforming backend returns byte-for-byte the profile the local
// profiler would have measured. Go's encoding/json round-trips float64
// values exactly (shortest-representation encoding), so shipping profiles
// over the wire preserves that identity, and a search run against a fleet
// produces bit-identical artifacts to a local run of the same seed. Which
// backend served an evaluation is visible only in telemetry, never in
// results.
package backend

import (
	"context"
	"errors"

	"datamime/internal/profile"
)

// ProtocolVersion is the wire-protocol version spoken between coordinators
// and workers. Both sides reject mismatched versions outright: a silently
// reinterpreted field could break bit-identity, the one failure mode this
// subsystem must never have.
//
// Version history:
//
//	1 — PR 6's evaluation plane: EvalRequest/EvalResult, /v1/healthz,
//	    /v1/cache, /v1/workers.
//	2 — trace-context propagation: EvalRequest.TraceID, the EvalResponse
//	    envelope with shipped spans and worker wall-clock, WorkerHealth
//	    time/version fields, WorkerRegistration version/inflight fields.
//	    Later removed within 2, because no peer read them and both sides
//	    ignore unknown keys: the envelope's spans_truncated, EvalResult's
//	    cache_tier, WorkerHealth's inflight, evals_total and time_ns (an
//	    older coordinator takes an unstamped answer as no clock sample),
//	    WorkerRegistration's inflight, the cache.probe span's cache_tier
//	    attr, and the coordinator's /v1/cache (an older worker reads its
//	    404 as a miss and counts a failed PUT as a shared-tier error).
//	    Then EvalRequest's key and the cache.probe span, with the worker's
//	    own cache: a newer worker ignores an older coordinator's key, and
//	    an older worker skips its cache for a request without one.
//	3 — one-pass profiles (profile.Method): the same EvalRequest measures
//	    another profile than a version-2 worker's multi-run sweep, so a
//	    version-2 worker is refused at registration and at healthz.
const ProtocolVersion = 3

// Evaluation kinds.
const (
	// KindCandidate evaluates one generator parameter vector (the search
	// hot path).
	KindCandidate = "candidate"
	// KindTarget profiles a registered workload's hidden target (done once
	// per workload-sourced job).
	KindTarget = "target"
)

// ProfilerSpec is the serializable description of a profile.Profiler: the
// machine by name plus what is measured (profile.Spec — every budget knob
// that enters core.EvalKey, marshaled flat). Budget and Telemetry are
// deliberately absent — they change how fast a profile is measured,
// never what is measured — so the receiving side is free to pick its own
// parallelism. Zero-valued fields are meaningful (e.g. WarmupWindows 0) and
// are always marshaled.
type ProfilerSpec struct {
	Machine string `json:"machine"`
	profile.Spec
}

// SpecOf extracts the wire spec from a profiler.
func SpecOf(pr *profile.Profiler) ProfilerSpec {
	return ProfilerSpec{Machine: pr.Machine.Name, Spec: pr.Spec}
}

// EvalRequest is one evaluation, as dispatched to a backend and as POSTed
// to a worker's /v1/evaluate endpoint.
type EvalRequest struct {
	// Version is the protocol version (ProtocolVersion).
	Version int `json:"version"`
	// Kind selects what to measure: KindCandidate or KindTarget.
	Kind string `json:"kind"`
	// Generator names the registered dataset generator (candidate evals).
	Generator string `json:"generator,omitempty"`
	// Workload names the registered evaluation workload (target evals).
	Workload string `json:"workload,omitempty"`
	// Params is the denormalized candidate parameter vector.
	Params []float64 `json:"params,omitempty"`
	// Seed is the deterministic profiling seed (core.IterationSeed).
	Seed uint64 `json:"seed"`
	// Profiler is the measurement spec.
	Profiler ProfilerSpec `json:"profiler"`
	// TraceID, when set, asks the serving side to capture its telemetry
	// spans (profile.sim, budget.wait) for this evaluation and ship them
	// back in the response envelope. It is pure trace context: deliberately
	// excluded from core.EvalKey, it can never change what is measured.
	TraceID string `json:"trace_id,omitempty"`
}

// ErrRequest marks an evaluation that failed because of the request itself —
// a protocol version, kind, machine, budget, generator, workload or parameter
// vector this side cannot resolve (LocalBackend.resolve wraps it; a
// RemoteBackend maps a worker's HTTP 400/413 to it). Sending the same bytes to
// another worker would fail the same way, so the dispatcher neither retries
// the request nor counts it against the worker that refused it.
var ErrRequest = errors.New("backend: unresolvable request")

// EvalResult is one evaluation's outcome. Profile is the only field that
// feeds back into the search; everything else is telemetry.
type EvalResult struct {
	// Profile is the measured (bit-deterministic) profile.
	Profile *profile.Profile `json:"profile"`
	// Worker is the self-reported name of the backend that measured (or
	// recalled) the profile.
	Worker string `json:"worker,omitempty"`
	// DurationNS is the serving side's measured evaluation time.
	DurationNS int64 `json:"duration_ns,omitempty"`

	// The dispatcher annotates results with routing metadata; these fields
	// never cross the wire.

	// WorkerID is the dispatcher-assigned fleet ID of the serving worker,
	// or -1 when the local fallback served the evaluation.
	WorkerID int `json:"-"`
	// Retries counts failed dispatch attempts before this result; with
	// Remote false, a nonzero count means the evaluation fell back local.
	Retries int `json:"-"`
	// Remote reports whether a fleet worker served the evaluation.
	Remote bool `json:"-"`
	// Spans holds the serving side's captured telemetry spans when the
	// request carried a TraceID, stamped in this process's clock whichever
	// backend served them: a RemoteBackend receives them in the EvalResponse
	// envelope — never inside EvalResult's own wire form — and anchors them
	// to the round trip that carried them.
	Spans []WireSpan `json:"-"`
}

// WireSpan is one captured telemetry span as shipped in an EvalResponse
// envelope: just enough to replay the remote execution on the coordinator's
// unified timeline. TimeNS is the span's *end* in the serving side's wall
// clock (the telemetry convention); DurNS is monotonic-clock duration and
// needs no alignment.
type WireSpan struct {
	Phase  string             `json:"phase"`
	Iter   int                `json:"iter,omitempty"`
	DurNS  int64              `json:"dur_ns"`
	TimeNS int64              `json:"time_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// EvalResponse is the /v1/evaluate 200 body: the deterministic EvalResult
// plus observability sidecars that must never enter search state. Keeping
// them outside EvalResult's marshaled form — rather than as more json:"-"
// fields — makes the separation structural: EvalResult's wire shape simply
// has no slot for non-deterministic data.
type EvalResponse struct {
	EvalResult
	// Spans is the worker's captured telemetry for this evaluation (present
	// only when the request carried a TraceID), stamped in the worker's
	// clock.
	Spans []WireSpan `json:"spans,omitempty"`
	// TimeNS is the worker's wall clock (UnixNano) when the response was
	// built, after every shipped span ended: the receiver places it at the
	// response's arrival and shifts Spans with it.
	TimeNS int64 `json:"time_ns,omitempty"`
}

// Evaluator measures candidates: all a SearchEvaluator asks of its backend
// (typically a Dispatcher). Implementations must uphold the determinism
// contract: for a given request, return exactly the profile the in-process
// profiler would measure.
type Evaluator interface {
	// Evaluate measures one request. The context carries cancellation and
	// per-attempt timeouts.
	Evaluate(ctx context.Context, req EvalRequest) (EvalResult, error)
}

// NamedEvaluator is an Evaluator that names itself in telemetry and logs:
// what the dispatcher's local fallback is.
type NamedEvaluator interface {
	Evaluator
	// Name identifies the evaluator in telemetry and logs.
	Name() string
}

// EvalBackend is a fleet member: a NamedEvaluator the dispatcher also
// probes and sizes.
type EvalBackend interface {
	NamedEvaluator
	// Health probes liveness (and, for remote backends, refreshes the
	// advertised capacity); a nil error means the backend can serve.
	Health(ctx context.Context) error
	// Capacity is the backend's advertised maximum concurrent evaluations;
	// 0 means unknown.
	Capacity() int
}
