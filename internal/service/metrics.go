package service

import (
	"net/http"
	"strconv"
	"time"

	"datamime/internal/backend"
	"datamime/internal/telemetry"
)

// serverMetrics is the server's unified metrics registry: every operational
// counter, gauge, and histogram /metrics exports lives here, registered once
// at startup. Hot-path code increments the typed handles; state that is
// already tracked elsewhere (the job table, the evaluation cache, per-job
// progress) is read at scrape time through collector callbacks, so the
// dynamic label sets — jobs by state, per-job gauges — stay exact without
// double bookkeeping.
type serverMetrics struct {
	reg *telemetry.Registry

	// Worker-pool and evaluation counters (incremented by the job workers).
	workersBusy  *telemetry.Gauge
	evalsTotal   *telemetry.Counter
	skippedTotal *telemetry.Counter
	retriedTotal *telemetry.Counter
	cyclesTotal  *telemetry.Counter

	// Parallel-search contention metrics, fed from telemetry spans by
	// observeSpan: simulation occupancy per budget slot, budget-semaphore
	// wait time, and the GP surrogate's factor appends vs rebuilds.
	simRuns           *telemetry.Counter
	workerBusySeconds *telemetry.CounterVec
	budgetWaitSeconds *telemetry.Counter
	gpAppends         *telemetry.Counter
	gpRebuilds        *telemetry.Counter

	// phaseHist aggregates search-phase latencies across all jobs;
	// populated only when telemetry is on.
	phaseHist *telemetry.HistogramVec

	// dispatchHist observes end-to-end dispatched-evaluation latency by
	// serving side ("remote", "local"); fed by observeDispatch from each
	// job's SearchEvaluator.
	dispatchHist *telemetry.HistogramVec

	// Fleet-span metrics: spans shipped back from remote workers (tagged
	// with the fleet-worker attribute) are accounted here, NOT in the local
	// pool families above — mixing remote simulation time into the local
	// budget-slot gauges would corrupt both views.
	fleetSimRuns           *telemetry.Counter
	fleetBusySeconds       *telemetry.CounterVec
	fleetBudgetWaitSeconds *telemetry.Counter

	// Run-corpus watchdog metrics (incremented by indexRun on every
	// succeeded job).
	corpusIndexed     *telemetry.Counter
	corpusRegressions *telemetry.Counter
	corpusVerdicts    *telemetry.CounterVec
}

// newServerMetrics builds the registry. Collector callbacks close over the
// server and run at scrape time; they take the same locks the HTTP handlers
// do and never touch the search hot path.
func newServerMetrics(s *Server) *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{reg: reg}

	reg.NewCollector("datamimed_jobs", "Jobs tracked by the server, by state.",
		"gauge", []string{"state"}, func() []telemetry.Sample {
			counts := s.jobCounts()
			out := make([]telemetry.Sample, 0, len(allStates()))
			for _, st := range allStates() {
				out = append(out, telemetry.Sample{Labels: []string{string(st)}, Value: float64(counts[st])})
			}
			return out
		})
	reg.NewGaugeFunc("datamimed_workers", "Worker-pool size.",
		func() float64 { return float64(s.cfg.Workers) })
	m.workersBusy = reg.NewGauge("datamimed_workers_busy", "Workers currently running a job.")

	reg.NewCounterFunc("datamimed_eval_cache_hits_total", "Evaluation-cache hits.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	reg.NewCounterFunc("datamimed_eval_cache_misses_total", "Evaluation-cache misses.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	reg.NewCounterFunc("datamimed_eval_cache_evictions_total", "Profiles evicted from the evaluation cache.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	reg.NewGaugeFunc("datamimed_eval_cache_entries", "Profiles currently cached.",
		func() float64 { return float64(s.cache.Stats().Entries) })

	m.evalsTotal = reg.NewCounter("datamimed_evaluations_total",
		"Fresh candidate evaluations completed.")
	m.skippedTotal = reg.NewCounter("datamimed_evaluations_skipped_total",
		"Evaluations dropped by the retry-skip policy.")
	m.retriedTotal = reg.NewCounter("datamimed_evaluations_retried_total",
		"Evaluations that succeeded on their perturbed-seed retry.")
	m.cyclesTotal = reg.NewCounter("datamimed_simulated_cycles_total",
		"Estimated simulated cycles spent profiling.")

	m.simRuns = reg.NewCounter("datamimed_sim_runs_total",
		"Profile passes simulated.")
	m.workerBusySeconds = reg.NewCounterVec("datamimed_profile_worker_busy_seconds_total",
		"Simulation time per simulation budget slot.", "worker")
	m.budgetWaitSeconds = reg.NewCounter("datamimed_budget_wait_seconds_total",
		"Time profiles spent blocked on the shared simulation budget.")
	m.gpAppends = reg.NewCounter("datamimed_gp_cholesky_appends_total",
		"GP surrogate factor updates taking the incremental append fast path.")
	m.gpRebuilds = reg.NewCounter("datamimed_gp_cholesky_rebuilds_total",
		"GP surrogate factor updates falling back to full refactorization.")

	m.phaseHist = reg.NewHistogramVec("datamimed_phase_seconds",
		"Search phase latency, by phase.", "phase", nil)

	// Distributed evaluation plane: admission-control queue depth, fleet
	// composition and per-worker load (read from the dispatcher at scrape
	// time), dispatch outcome counters, and end-to-end dispatch latency.
	reg.NewGaugeFunc("datamimed_dispatch_queue_depth",
		"Evaluations waiting for a remote worker slot.",
		func() float64 { return float64(s.dispatcher.QueueDepth()) })
	reg.NewCounterFunc("datamimed_dispatch_remote_evals_total",
		"Candidate evaluations served by remote workers.",
		func() float64 { return float64(s.dispatcher.Counters().RemoteEvals) })
	reg.NewCounterFunc("datamimed_dispatch_local_evals_total",
		"Dispatched evaluations served by the in-process fallback.",
		func() float64 { return float64(s.dispatcher.Counters().LocalEvals) })
	reg.NewCounterFunc("datamimed_dispatch_retries_total",
		"Failed remote attempts that were re-dispatched.",
		func() float64 { return float64(s.dispatcher.Counters().Retries) })
	reg.NewCounterFunc("datamimed_dispatch_fallbacks_total",
		"Evaluations that fell back local after remote attempts failed.",
		func() float64 { return float64(s.dispatcher.Counters().Fallbacks) })
	reg.NewCounterFunc("datamimed_dispatch_sheds_total",
		"Evaluations shed to the local backend by admission control.",
		func() float64 { return float64(s.dispatcher.Counters().Sheds) })
	reg.NewCounterFunc("datamimed_fleet_registered_total",
		"Workers that joined the fleet.",
		func() float64 { return float64(s.dispatcher.Counters().Registered) })
	reg.NewCounterFunc("datamimed_fleet_deregistered_total",
		"Workers that left the fleet (withdrawn or evicted).",
		func() float64 { return float64(s.dispatcher.Counters().Deregistered) })
	reg.NewCollector("datamimed_fleet_worker_inflight",
		"In-flight evaluations per registered worker.",
		"gauge", []string{"worker"}, func() []telemetry.Sample {
			var out []telemetry.Sample
			for _, w := range s.dispatcher.Workers() {
				out = append(out, telemetry.Sample{Labels: []string{w.Name}, Value: float64(w.Inflight)})
			}
			return out
		})
	reg.NewCollector("datamimed_fleet_worker_healthy",
		"Health of each registered worker (1 healthy, 0 failing).",
		"gauge", []string{"worker"}, func() []telemetry.Sample {
			var out []telemetry.Sample
			for _, w := range s.dispatcher.Workers() {
				v := 0.0
				if w.Healthy {
					v = 1
				}
				out = append(out, telemetry.Sample{Labels: []string{w.Name}, Value: v})
			}
			return out
		})
	m.dispatchHist = reg.NewHistogramVec("datamimed_dispatch_seconds",
		"End-to-end dispatched-evaluation latency, by serving side.", "side", nil)

	// Run-corpus watchdog. The gauge counts the corpus's records, restored
	// ones included, so a coordinator restart on its checkpoint directory
	// doesn't zero it; the counters are this process's indexing/watchdog
	// activity.
	reg.NewGaugeFunc("datamimed_corpus_runs",
		"Run records in the corpus.",
		func() float64 {
			s.recordsMu.Lock()
			defer s.recordsMu.Unlock()
			return float64(len(s.records))
		})
	m.corpusIndexed = reg.NewCounter("datamimed_corpus_runs_indexed_total",
		"Finished jobs indexed into the run corpus by this process.")
	m.corpusRegressions = reg.NewCounter("datamimed_corpus_regressions_total",
		"Finished jobs the corpus watchdog judged regressed vs their scenario baseline.")
	m.corpusVerdicts = reg.NewCounterVec("datamimed_corpus_verdicts_total",
		"Corpus watchdog verdicts for indexed runs, by verdict.", "verdict")

	// Fleet observability: remote-shipped span accounting plus the
	// coordinator's own Go runtime health (each worker exports the matching
	// datamime_worker_go_* families at its own /metrics).
	m.fleetSimRuns = reg.NewCounter("datamimed_fleet_sim_runs_total",
		"Profile passes simulated on remote workers (from shipped spans).")
	m.fleetBusySeconds = reg.NewCounterVec("datamimed_fleet_worker_busy_seconds_total",
		"Remote simulation time per fleet worker ID (from shipped spans).", "worker")
	m.fleetBudgetWaitSeconds = reg.NewCounter("datamimed_fleet_budget_wait_seconds_total",
		"Remote budget-semaphore wait time (from shipped spans).")
	telemetry.RegisterRuntimeMetrics(reg, "datamimed")

	// Per-job gauges read each active job's status; terminal jobs drop out,
	// so the label set stays bounded by the queue.
	jobGauge := func(name, help string, value func(JobStatus) (float64, bool)) {
		reg.NewCollector(name, help, "gauge", []string{"job"}, func() []telemetry.Sample {
			var out []telemetry.Sample
			for _, j := range s.Jobs() {
				if st := j.status(); !st.State.terminal() {
					if v, ok := value(st); ok {
						out = append(out, telemetry.Sample{Labels: []string{st.ID}, Value: v})
					}
				}
			}
			return out
		})
	}
	jobGauge("datamimed_job_iterations_done", "Finished iterations of each active job.",
		func(st JobStatus) (float64, bool) { return float64(st.Iterations), true })
	jobGauge("datamimed_job_best_error", "Running minimum objective value of each active job.",
		func(st JobStatus) (float64, bool) { return st.BestError, st.Evaluations > 0 })
	jobGauge("datamimed_job_sim_cycles", "Estimated simulated cycles spent by each active job.",
		func(st JobStatus) (float64, bool) { return st.SimCycles, true })

	reg.NewGaugeFunc("datamimed_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })

	return m
}

// observeDispatch feeds one dispatched evaluation's outcome into the
// dispatch latency histogram. Runs on the search goroutines (the
// SearchEvaluator's OnResult is synchronous).
func (m *serverMetrics) observeDispatch(res backend.EvalResult, err error, d time.Duration) {
	if err != nil {
		return
	}
	side := "local"
	if res.Remote {
		side = "remote"
	}
	m.dispatchHist.Observe(side, d)
}

// observeSpan feeds one job span into the contention metrics: phase latency
// always, plus the phase-specific families. Runs on the search goroutines
// (the recorder's OnEvent is synchronous), so it only touches atomics.
func (m *serverMetrics) observeSpan(ev telemetry.Event) {
	if _, fleet := ev.Attrs[telemetry.AttrFleetWorker]; fleet {
		// Shipped remote spans get their own families; the local phase
		// histogram and pool gauges must reflect this process only.
		m.observeFleetSpan(ev)
		return
	}
	m.phaseHist.Observe(ev.Phase, time.Duration(ev.DurNS))
	secs := float64(ev.DurNS) / 1e9
	switch ev.Phase {
	case telemetry.PhaseSimRun:
		m.simRuns.Inc()
		m.workerBusySeconds.With(strconv.Itoa(int(ev.Attrs[telemetry.AttrWorker]))).Add(secs)
	case telemetry.PhaseBudgetWait:
		m.budgetWaitSeconds.Add(secs)
	case telemetry.PhaseGPFit:
		m.gpAppends.Add(ev.Attrs[telemetry.AttrCholeskyAppends])
		m.gpRebuilds.Add(ev.Attrs[telemetry.AttrCholeskyRebuilds])
	}
}

// observeFleetSpan accounts one remote-shipped span (already anchored to
// the coordinator clock and tagged with the fleet worker ID, -1 for the
// local fallback).
func (m *serverMetrics) observeFleetSpan(ev telemetry.Event) {
	secs := float64(ev.DurNS) / 1e9
	wid := strconv.Itoa(int(ev.Attrs[telemetry.AttrFleetWorker]))
	switch ev.Phase {
	case telemetry.PhaseSimRun:
		m.fleetSimRuns.Inc()
		m.fleetBusySeconds.With(wid).Add(secs)
	case telemetry.PhaseBudgetWait:
		m.fleetBudgetWaitSeconds.Add(secs)
	}
}

// handleMetrics serves the registry in the Prometheus text exposition
// format. Workers serve their own datamime_worker_* families.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.reg.WritePrometheus(w)
}
