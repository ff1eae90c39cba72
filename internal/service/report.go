package service

import (
	"net/http"

	"datamime/internal/core"
	"datamime/internal/inspect"
)

// jobProfiles assembles the target/best profile pair behind a job's eCDF
// overlays. Live jobs carry both in memory; for jobs restored from their log
// after a restart, the profiles are recovered through the shared evaluation
// cache by reconstructing the content addresses the original run used (the
// profiler and seeds are deterministic functions of the spec, and the best
// eval event names its point, iteration and retry). Recovery is best-effort:
// a cold cache yields a partial doc, and a report rendered from it degrades
// to artifact totals.
func (s *Server) jobProfiles(j *Job) *inspect.ProfilesDoc {
	j.mu.Lock()
	doc := &inspect.ProfilesDoc{
		Job:    j.id,
		Target: j.targetProf,
		Best:   j.bestProf,
	}
	best, found := j.run.Best()
	p := j.plan
	j.mu.Unlock()

	if found {
		doc.Components = best.Record.Components
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
	if doc.Best == nil && found {
		seed := core.IterationSeed(p.spec.Seed, best.Record.Iteration, best.Retried)
		if prof, ok := s.cache.Get(core.EvalKey(p.generator.Name, p.profiler, best.Record.Params, seed)); ok {
			doc.Best = prof
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
