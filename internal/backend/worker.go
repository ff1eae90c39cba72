package backend

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"datamime/internal/datagen"
	"datamime/internal/profile"
	"datamime/internal/telemetry"
)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Name is the worker's self-reported identity (required in practice;
	// defaults to "worker").
	Name string
	// Capacity bounds concurrent evaluations (default 1). Requests beyond
	// capacity queue up to MaxBacklog, then shed with HTTP 503 so the
	// dispatcher retries elsewhere.
	Capacity int
	// MaxBacklog bounds queued (admitted but not yet running) evaluations
	// (default = Capacity).
	MaxBacklog int
	// Generators registers extra generators beyond the built-in set.
	Generators []datagen.Generator
	// Version is the worker binary's build version, reported in health
	// probes and heartbeats so the coordinator can surface version skew.
	Version string
}

// Worker is the evaluation server behind cmd/datamime-worker: a
// LocalBackend fronted by admission control and the versioned HTTP protocol
// (POST /v1/evaluate, GET /v1/healthz, GET /metrics). It keeps no cache: a
// request reaches it only after missing the coordinator's.
type Worker struct {
	cfg   WorkerConfig
	local *LocalBackend
	reg   *telemetry.Registry

	// sem holds one token per admitted-and-running evaluation; queued
	// counts admitted requests (running included) for the 503 shed check.
	sem    chan struct{}
	queued atomic.Int64

	evals       atomic.Uint64
	evalErrors  atomic.Uint64
	busyRejects atomic.Uint64
	started     time.Time
}

// NewWorker builds a worker.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1
	}
	if cfg.MaxBacklog <= 0 {
		cfg.MaxBacklog = cfg.Capacity
	}
	local := NewLocalBackend(cfg.Generators...)
	if cfg.Capacity > local.budget.Cap() {
		// Room for every admitted evaluation to run at once.
		local.budget = profile.NewBudget(cfg.Capacity)
	}
	w := &Worker{
		cfg:     cfg,
		local:   local,
		sem:     make(chan struct{}, cfg.Capacity),
		started: time.Now(),
	}
	w.reg = w.buildMetrics()
	return w
}

// Name returns the worker's self-reported identity.
func (w *Worker) Name() string { return w.cfg.Name }

// Capacity returns the worker's concurrent-evaluation bound.
func (w *Worker) Capacity() int { return w.cfg.Capacity }

// buildMetrics assembles the worker's /metrics registry.
func (w *Worker) buildMetrics() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	reg.NewGaugeFunc("datamime_worker_capacity", "Maximum concurrent evaluations.",
		func() float64 { return float64(w.cfg.Capacity) })
	reg.NewGaugeFunc("datamime_worker_inflight", "Admitted evaluations (running + queued).",
		func() float64 { return float64(w.queued.Load()) })
	reg.NewCounterFunc("datamime_worker_evaluations_total", "Evaluations served.",
		func() float64 { return float64(w.evals.Load()) })
	reg.NewCounterFunc("datamime_worker_evaluation_errors_total", "Evaluations that failed.",
		func() float64 { return float64(w.evalErrors.Load()) })
	reg.NewCounterFunc("datamime_worker_busy_rejects_total", "Requests shed with 503 at capacity.",
		func() float64 { return float64(w.busyRejects.Load()) })
	reg.NewGaugeFunc("datamime_worker_uptime_seconds", "Seconds since the worker started.",
		func() float64 { return time.Since(w.started).Seconds() })
	telemetry.RegisterRuntimeMetrics(reg, "datamime_worker")
	return reg
}

// Handler returns the worker's HTTP API.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathEvaluate, w.handleEvaluate)
	mux.HandleFunc("GET "+PathHealthz, w.handleHealthz)
	mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
		w.reg.WritePrometheus(rw)
	})
	return http.MaxBytesHandler(mux, maxEvalRequestBytes)
}

// Health reports the worker's handshake body.
func (w *Worker) Health() WorkerHealth {
	return WorkerHealth{
		Protocol: ProtocolVersion,
		Name:     w.cfg.Name,
		Capacity: w.cfg.Capacity,
		Version:  w.cfg.Version,
	}
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	writeWire(rw, http.StatusOK, w.Health())
}

// maxEvalRequestBytes bounds a request body (Handler wraps the mux). An
// evaluation is names, a seed, the profiler spec and a few dozen parameters,
// under 1 KB; 1 MiB leaves room for thousands of parameters.
const maxEvalRequestBytes = 1 << 20

// handleEvaluate serves one evaluation: resolve the request, admission
// control, then the measurement.
func (w *Worker) handleEvaluate(rw http.ResponseWriter, r *http.Request) {
	var req EvalRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeWire(rw, status, wireError{Error: fmt.Sprintf("decoding request: %v", err)})
		return
	}
	// A request this worker cannot resolve is refused before admission: it
	// takes no slot, and 400 tells the dispatcher the request is at fault.
	pr, build, err := w.local.resolve(req)
	if err != nil {
		writeWire(rw, http.StatusBadRequest, wireError{Error: err.Error()})
		return
	}
	// Admission: shed once running + queued requests exceed the backlog
	// bound, so the dispatcher re-routes instead of piling onto a busy
	// worker.
	if int(w.queued.Add(1)) > w.cfg.Capacity+w.cfg.MaxBacklog {
		w.queued.Add(-1)
		w.busyRejects.Add(1)
		writeWire(rw, http.StatusServiceUnavailable, wireError{Error: "worker is at capacity"})
		return
	}
	defer w.queued.Add(-1)
	select {
	case w.sem <- struct{}{}:
	case <-r.Context().Done():
		writeWire(rw, http.StatusServiceUnavailable, wireError{Error: "canceled while queued"})
		return
	}
	defer func() { <-w.sem }()

	res, err := w.local.measure(r.Context(), req, pr, build)
	if err != nil {
		w.evalErrors.Add(1)
		status := http.StatusInternalServerError
		if r.Context().Err() != nil {
			status = http.StatusServiceUnavailable
		}
		writeWire(rw, status, wireError{Error: err.Error()})
		return
	}
	res.Worker = w.cfg.Name
	w.evals.Add(1)
	// The envelope: the deterministic result, the captured spans (which
	// measure collects only when trace context was propagated) and the
	// worker's wall clock once every span has ended.
	writeWire(rw, http.StatusOK, EvalResponse{EvalResult: res, Spans: res.Spans, TimeNS: time.Now().UnixNano()})
}

// RunAnnouncer keeps the worker registered with a coordinator: announce
// immediately, re-announce every interval (heartbeat), and withdraw on
// context cancellation. Errors are reported through onErr (nil ignores
// them) — a briefly unreachable coordinator only delays registration.
func (w *Worker) RunAnnouncer(ctx context.Context, coordinator, selfURL string, interval time.Duration, onErr func(error)) {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	reg := WorkerRegistration{
		URL:      selfURL,
		Name:     w.cfg.Name,
		Capacity: w.cfg.Capacity,
		Version:  w.cfg.Version,
	}
	announce := func() {
		if err := Announce(ctx, coordinator, reg); err != nil && onErr != nil {
			onErr(err)
		}
	}
	announce()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			// Best-effort clean withdrawal with a fresh, bounded context.
			wctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = Withdraw(wctx, coordinator, selfURL)
			cancel()
			return
		case <-t.C:
			announce()
		}
	}
}

// writeWire writes one protocol JSON response.
func writeWire(rw http.ResponseWriter, status int, v interface{}) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}
