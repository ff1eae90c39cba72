package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs               submit a JobSpec, returns {"id": ...}; a spec
//	                            that does not resolve is a 400 and creates no
//	                            job, a full queue or closed server a 503
//	GET  /v1/jobs               list job summaries
//	GET  /v1/jobs/{id}          status: state, counters, best error and, once
//	                            the job succeeded, its result (the iterations
//	                            are the eval events of /artifact)
//	GET  /v1/jobs/{id}/artifact JSONL run artifact (inspect.LoadRun reads it
//	                            back; its best-error series is the job's
//	                            convergence trace exactly); with ?follow=1
//	                            the job's live stream, which writes each
//	                            event as it is recorded and ends once the
//	                            job is terminal
//	GET  /v1/jobs/{id}/profiles target + best-candidate profiles as JSON
//	POST /v1/jobs/{id}/cancel   cancel a queued or running job
//	GET  /metrics               Prometheus text-format metrics registry
//	GET  /healthz               liveness probe
//
// A job's report, search-health diagnostics and Perfetto trace are
// renderings of its artifact and profiles: datamime-inspect report and
// timeline read both from these URLs, mid-run too.
//
// The distributed evaluation plane (backend.ProtocolVersion, see
// internal/backend):
//
//	POST /v1/workers         worker self-registration (idempotent on URL;
//	                         re-announcements are heartbeats)
//	DELETE /v1/workers?url=  clean worker withdrawal
//	GET  /v1/fleet           fleet view: per-worker routing state, load and
//	                         version, dispatch queue depth and counters
//
// The run corpus, the records of the succeeded jobs (restored ones
// included, so it outlives a restart exactly when Config.CheckpointDir is
// set):
//
//	GET  /v1/corpus          run records (filter with scenario=, target=,
//	                         since=, until= RFC 3339, limit=N most recent);
//	                         corpus.Trends over them, or datamime-inspect
//	                         corpus trends, gives the per-scenario series
//
// A request body past maxBodyBytes is refused with 413.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for pattern, handler := range s.routes() {
		mux.HandleFunc(pattern, handler)
	}
	return http.MaxBytesHandler(mux, maxBodyBytes)
}

// routes is the table Handler registers from, by ServeMux pattern.
// Everything but the two operational probes lives under /v1
// (TestRoutesAreVersioned).
func (s *Server) routes() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"POST /v1/jobs":              s.handleSubmit,
		"GET /v1/jobs":               s.handleList,
		"GET /v1/jobs/{id}":          s.withJob(s.handleStatus),
		"GET /v1/jobs/{id}/artifact": s.withJob(s.handleArtifact),
		"GET /v1/jobs/{id}/profiles": s.withJob(s.handleProfiles),
		"POST /v1/jobs/{id}/cancel":  s.handleCancel,
		"POST /v1/workers":           s.handleWorkerAnnounce,
		"DELETE /v1/workers":         s.handleWorkerWithdraw,
		"GET /v1/fleet":              s.handleFleet,
		"GET /v1/corpus":             s.handleCorpus,
		"GET /metrics":               s.handleMetrics,
		"GET /healthz": func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		},
	}
}

// withJob adapts a handler of one job to its {id} route: the lookup, and the
// 404 for an unknown ID, are written here once.
func (s *Server) withJob(h func(http.ResponseWriter, *http.Request, *Job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		h(w, r, j)
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxBodyBytes bounds every request body (Handler wraps the mux). The
// largest legitimate one carries a profile — a job's inline target — 23 KB
// of JSON at the Full budgets and ~0.5 KB more per window, so 4 MiB admits
// profiles of thousands of windows.
const maxBodyBytes = 4 << 20

// decodeStatus is the status for a body that failed to decode: 413 when it
// ran past maxBodyBytes, 400 otherwise.
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decodeJobSpec reads a submitted spec; a field JobSpec does not have is an
// error, not a silently ignored typo.
func decodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeJobSpec(r.Body)
	if err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("decoding job spec: %w", err))
		return
	}
	job, err := s.Submit(spec)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errUnavailable) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": job.ID()})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"jobs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, j *Job) {
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Cancel(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "state": "canceling"})
}
