package backend

import (
	"context"
	"time"

	"datamime/internal/core"
	"datamime/internal/profile"
	"datamime/internal/telemetry"
)

// SearchEvaluator adapts an Evaluator (typically a Dispatcher) to
// core.Evaluator: it wraps each candidate in a versioned EvalRequest. The
// search's own cache lookup,
// seeds, and scoring stay in core — the evaluator only replaces where the
// simulation runs, which is why a dispatched search stays bit-identical to
// a local one.
type SearchEvaluator struct {
	// Backend serves the evaluations.
	Backend Evaluator
	// Generator is the searched generator's registered name.
	Generator string
	// Profiler is the search's measurement spec (also the EvalKey
	// ingredient that names a traced request).
	Profiler *profile.Profiler
	// Telemetry, when non-nil, records one eval.remote span per evaluation
	// (with worker/retry attributes — the remote lanes of the trace export
	// and the run's only record of retries and fallbacks) followed by the
	// spans the serving side shipped back. Like all telemetry it cannot
	// affect results.
	Telemetry *telemetry.Recorder
	// OnResult, when non-nil, observes every evaluation's outcome (the
	// coordinator feeds its dispatch metrics from here).
	OnResult func(res EvalResult, err error, d time.Duration)

	spec ProfilerSpec
}

// NewSearchEvaluator builds the adapter for one search.
func NewSearchEvaluator(b Evaluator, generator string, pr *profile.Profiler) *SearchEvaluator {
	return &SearchEvaluator{
		Backend:   b,
		Generator: generator,
		Profiler:  pr,
		spec:      SpecOf(pr),
	}
}

// Evaluate implements core.Evaluator.
func (e *SearchEvaluator) Evaluate(ctx context.Context, x []float64, seed uint64) (*profile.Profile, error) {
	req := EvalRequest{
		Version:   ProtocolVersion,
		Kind:      KindCandidate,
		Generator: e.Generator,
		Params:    x,
		Seed:      seed,
		Profiler:  e.spec,
	}
	if e.Telemetry.Enabled() {
		// Trace context: the content address doubles as the trace ID — it is
		// deterministic and unique per evaluation. The serving side captures
		// and ships its spans only when set.
		req.TraceID = core.EvalKey(e.Generator, e.Profiler, x, seed)
	}
	start := time.Now()
	res, err := e.Backend.Evaluate(ctx, req)
	end := time.Now()
	d := end.Sub(start)
	if e.OnResult != nil {
		e.OnResult(res, err, d)
	}
	if rec := e.Telemetry; rec.Enabled() && err == nil {
		attrs := map[string]float64{
			telemetry.AttrRemoteWorker: float64(res.WorkerID),
			telemetry.AttrRetries:      float64(res.Retries),
		}
		if res.Remote {
			attrs[telemetry.AttrRemote] = 1
		}
		if res.DurationNS > 0 {
			// Worker-side evaluation time: round trip minus this is the
			// dispatch overhead (serialization, network, queueing).
			attrs[telemetry.AttrWorkerNS] = float64(res.DurationNS)
		}
		// Stamped with the end this call measured, so the span covers
		// exactly the backend call, and every span it returned lies inside.
		rec.Emit(telemetry.Event{
			Type:   telemetry.TypeSpan,
			Phase:  telemetry.PhaseRemoteEval,
			DurNS:  d.Nanoseconds(),
			TimeNS: end.UnixNano(),
			Attrs:  attrs,
		})
		// Replay the serving side's spans, already on this process's clock,
		// tagged with the fleet worker ID so the trace exporter and timeline
		// report can attribute them.
		for _, ws := range res.Spans {
			sa := make(map[string]float64, len(ws.Attrs)+1)
			for k, v := range ws.Attrs {
				sa[k] = v
			}
			sa[telemetry.AttrFleetWorker] = float64(res.WorkerID)
			rec.Emit(telemetry.Event{
				Type:   telemetry.TypeSpan,
				Iter:   ws.Iter,
				Phase:  ws.Phase,
				DurNS:  ws.DurNS,
				TimeNS: ws.TimeNS,
				Attrs:  sa,
			})
		}
	}
	if err != nil {
		return nil, err
	}
	return res.Profile, nil
}

var _ core.Evaluator = (*SearchEvaluator)(nil)
