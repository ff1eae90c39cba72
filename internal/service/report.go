package service

import (
	"net/http"

	"datamime/internal/core"
	"datamime/internal/inspect"
	"datamime/internal/telemetry"
)

// jobProfiles assembles the target/best profile pair behind a job's eCDF
// overlays. Live jobs carry both in memory; for jobs restored from a
// checkpoint after a restart, the profiles are recovered through the shared
// evaluation cache by reconstructing the content addresses the original run
// used (the profiler, seeds, and best point are all deterministic functions
// of the spec + checkpoint). Recovery is best-effort: a cold cache yields a
// partial doc, and the report degrades to artifact totals.
func (s *Server) jobProfiles(j *Job) *inspect.ProfilesDoc {
	j.mu.Lock()
	doc := &inspect.ProfilesDoc{
		Job:    j.id,
		Target: j.targetProf,
		Best:   j.bestProf,
	}
	if j.result != nil && len(j.result.Components) > 0 {
		doc.Components = j.result.Components
	}
	p := j.plan
	checkpoint := j.checkpoint.Clone()
	j.mu.Unlock()

	if doc.Components == nil {
		if best, ok := checkpoint.Best(); ok {
			doc.Components = best.Components
		}
	}
	if p == nil || (doc.Target != nil && doc.Best != nil) {
		return doc
	}

	// Recovery path: rebuild the cache keys the run used.
	if doc.Target == nil && p.workload != nil {
		if prof, ok := s.cache.Get(p.targetKey); ok {
			doc.Target = prof
		}
	}
	if doc.Best == nil {
		if best, ok := checkpoint.Best(); ok {
			x := p.generator.Space.Denormalize(best.U)
			seed := core.IterationSeed(p.spec.Seed, best.Iteration, best.Retried)
			if prof, ok := s.cache.Get(core.EvalKey(p.generator.Name, p.profiler, x, seed)); ok {
				doc.Best = prof
			}
		}
	}
	return doc
}

// handleProfiles serves GET /v1/jobs/{id}/profiles: the target and best-
// candidate profiles (per-metric sample distributions, from which clients
// compute eCDFs) plus the final per-component error attribution.
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request, j *Job) {
	writeJSON(w, http.StatusOK, s.jobProfiles(j))
}

// jobRun builds the inspect view of a job from the events the server already
// holds in memory — the one place a job becomes an *inspect.Run, shared by
// the report, the diagnostics endpoint and the corpus indexer. It also
// returns those events, for callers that store them. The event log carries
// each record's search-health snapshot with or without telemetry (addEval),
// so the run reads them as any artifact reader does.
func jobRun(j *Job) (*inspect.Run, []telemetry.Event, error) {
	events := artifactEvents(j)
	run, err := inspect.NewRun(events)
	return run, events, err
}

// jobDiagnostics is the GET /v1/jobs/{id}/diagnostics response: the job's
// search-health summary with the per-iteration snapshot records. Diagnostics
// is null until the optimizer's first surrogate-backed proposal (random
// bootstrap iterations, non-GP optimizers), always for optimizers that never
// fit a surrogate, and for jobs restored from a checkpoint, which does not
// store snapshots.
type jobDiagnostics struct {
	ID          string                `json:"id"`
	State       JobState              `json:"state"`
	Diagnostics *inspect.SearchHealth `json:"diagnostics"`
}

// handleDiagnostics serves GET /v1/jobs/{id}/diagnostics: per-iteration GP
// search-health records plus the SearchHealth aggregates and verdict. It
// reads the job's artifact events (see jobRun), so it works mid-run and with
// telemetry off, and equals what `datamime-inspect report` computes from the
// downloaded artifact.
func (s *Server) handleDiagnostics(w http.ResponseWriter, r *http.Request, j *Job) {
	run, _, err := jobRun(j)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, jobDiagnostics{
		ID:          j.ID(),
		State:       state,
		Diagnostics: inspect.NewSearchHealth(run),
	})
}

// handleReport serves GET /v1/jobs/{id}/report: the self-contained HTML run
// report (convergence plot, quantile-band EMD attribution, target-vs-best
// eCDF overlays) rendered from the job's events and profiles.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request, j *Job) {
	run, _, err := jobRun(j)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	report := inspect.NewReport(run, s.jobProfiles(j), j.ID())
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = report.RenderHTML(w)
}
