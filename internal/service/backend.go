package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"datamime/internal/backend"
	"datamime/internal/profile"
	"datamime/internal/telemetry"
)

// initDispatch builds the server's evaluation plane: a LocalBackend over the
// registered generators (the fallback that keeps jobs alive with an empty or
// dead fleet) and a Dispatcher that shards evaluations across registered
// datamime-worker processes. Statically configured workers (-worker flags)
// are registered immediately; dynamically announced ones arrive via
// POST /v1/workers. A health loop probes the fleet every
// workerHealthInterval and evicts workers that stop answering.
func (s *Server) initDispatch() {
	s.local = backend.NewLocalBackend(s.cfg.Generators...)
	s.dispatcher = backend.NewDispatcher(backend.DispatcherConfig{
		Local:   s.local,
		OnEvent: s.onFleetEvent,
	})
	for _, u := range s.cfg.WorkerURLs {
		if _, err := s.dispatcher.RegisterURL(backend.WorkerRegistration{URL: u}); err != nil {
			s.logf("worker %s rejected: %v", u, err)
		}
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(workerHealthInterval)
		defer t.Stop()
		for {
			select {
			case <-s.rootCtx.Done():
				return
			case <-t.C:
				s.dispatcher.CheckHealth(s.rootCtx)
			}
		}
	}()
}

// workerHealthInterval is the fleet health-probe period.
const workerHealthInterval = 15 * time.Second

// Dispatcher exposes the evaluation dispatcher (for tests and debug).
func (s *Server) Dispatcher() *backend.Dispatcher { return s.dispatcher }

// onFleetEvent reacts to fleet churn: one log line, plus a
// worker.register / worker.deregister telemetry instant broadcast into every
// running job's recorder so Perfetto timelines show when the fleet changed
// under a search. Called without dispatcher locks held.
func (s *Server) onFleetEvent(ev backend.FleetEvent) {
	phase := telemetry.PhaseWorkerRegister
	if ev.Type == backend.FleetDeregister {
		phase = telemetry.PhaseWorkerDeregister
	}
	if ev.Reason != "" {
		s.logf("fleet: %s worker %d (%s): %s", ev.Type, ev.ID, ev.Worker, ev.Reason)
	} else {
		s.logf("fleet: %s worker %d (%s)", ev.Type, ev.ID, ev.Worker)
	}
	attrs := map[string]float64{telemetry.AttrRemoteWorker: float64(ev.ID)}
	for _, j := range s.Jobs() {
		j.mu.Lock()
		rec := j.recorder
		running := j.state == JobRunning
		j.mu.Unlock()
		if running && rec.Enabled() {
			rec.RecordSpan(phase, 0, 0, attrs)
		}
	}
}

// profileTarget measures a workload's hidden target profile, through the
// dispatcher when the job runs remote (KindTarget requests resolve the
// workload by name on the worker) and in-process otherwise.
func (s *Server) profileTarget(ctx context.Context, p *plan) (*profile.Profile, error) {
	if b := p.evalBackend(s.dispatcher); b != nil {
		res, err := b.Evaluate(ctx, backend.EvalRequest{
			Version:  backend.ProtocolVersion,
			Kind:     backend.KindTarget,
			Workload: p.workload.Name,
			Seed:     p.spec.Seed,
			Profiler: backend.SpecOf(p.profiler),
		})
		if err != nil {
			return nil, err
		}
		return res.Profile, nil
	}
	return p.profiler.ProfileContext(ctx, p.workload.Target, p.spec.Seed)
}

// handleWorkerAnnounce registers (or heartbeats) a worker: POST /v1/workers.
func (s *Server) handleWorkerAnnounce(w http.ResponseWriter, r *http.Request) {
	var reg backend.WorkerRegistration
	if err := json.NewDecoder(r.Body).Decode(&reg); err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("decoding registration: %w", err))
		return
	}
	id, err := s.dispatcher.RegisterURL(reg)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"id": id})
}

// handleWorkerWithdraw deregisters a worker: DELETE /v1/workers?url=...
func (s *Server) handleWorkerWithdraw(w http.ResponseWriter, r *http.Request) {
	u := r.URL.Query().Get("url")
	if u == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("url query parameter is required"))
		return
	}
	if !s.dispatcher.Deregister(u, "withdrawn") {
		writeError(w, http.StatusNotFound, fmt.Errorf("no worker %q", u))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"url": u, "state": "withdrawn"})
}

// FleetStatus is the GET /v1/fleet response body. Each worker publishes its
// own datamime_worker_* families at its /metrics; the coordinator reports
// what it routes on.
type FleetStatus struct {
	Workers  []backend.WorkerInfo     `json:"workers"`
	Queue    int                      `json:"queue"`
	Dispatch backend.DispatchCounters `json:"dispatch"`
}

// handleFleet serves GET /v1/fleet: the dispatcher's view of every worker
// (routing state and version), its queue and counters.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, FleetStatus{
		Workers:  s.dispatcher.Workers(),
		Queue:    s.dispatcher.QueueDepth(),
		Dispatch: s.dispatcher.Counters(),
	})
}
