package service

import (
	"encoding/json"
	"fmt"
	"net/http"

	"datamime/internal/telemetry"
)

// handleEvents streams a job's telemetry events as Server-Sent Events:
// one `event: eval` per iteration in iteration order, interleaved with
// `event: span` phase timings when the job runs with telemetry, closing
// with `event: done` once the job reaches a terminal state. Subscribers
// joining mid-run first receive the full backlog.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	s.metrics.sseActive.Add(1)
	defer s.metrics.sseActive.Add(-1)

	idx := 0
	for {
		j.mu.Lock()
		if idx > len(j.events) {
			idx = 0 // the event log was reset by a resume; restart
		}
		// Slow-consumer backpressure: the search goroutine only ever
		// appends to the log and never waits for subscribers, so a stalled
		// connection shows up here as an oversized pending batch. Cap it by
		// dropping the oldest events and telling the subscriber how many it
		// missed, instead of ballooning the copy (and this handler's write
		// time) without bound.
		dropped := 0
		if backlog := len(j.events) - idx; backlog > s.cfg.SSEMaxBacklog {
			dropped = backlog - s.cfg.SSEMaxBacklog
			idx += dropped
		}
		batch := append([]telemetry.Event(nil), j.events[idx:]...)
		idx = len(j.events)
		state := j.state
		sig := j.sigLocked()
		j.mu.Unlock()

		if dropped > 0 {
			s.metrics.sseDropped.Add(float64(dropped))
			if _, err := fmt.Fprintf(w, "event: dropped\ndata: {\"dropped\":%d}\n\n", dropped); err != nil {
				return
			}
		}
		for _, ev := range batch {
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
				return
			}
		}
		if len(batch) > 0 {
			fl.Flush()
		}
		if state.terminal() {
			fmt.Fprintf(w, "event: done\ndata: {\"state\":%q}\n\n", state)
			fl.Flush()
			return
		}
		select {
		case <-sig:
		case <-r.Context().Done():
			return
		case <-s.rootCtx.Done():
			return
		}
	}
}

// artifactEvents assembles a job's complete artifact event sequence: the
// header log line followed by every recorded event. Jobs restored from disk
// carry the eval events loadCheckpoints rebuilt, which hold results and
// attribution but no cache or timing detail.
func artifactEvents(j *Job) []telemetry.Event {
	j.mu.Lock()
	events := append([]telemetry.Event(nil), j.events...)
	state := j.state
	j.mu.Unlock()
	header := telemetry.Event{
		Type: telemetry.TypeLog,
		Job:  j.ID(),
		Msg:  fmt.Sprintf("datamime run artifact: state=%s events=%d", state, len(events)),
	}
	return append([]telemetry.Event{header}, events...)
}

// handleArtifact exports a job's JSONL run artifact: a log header line
// followed by every recorded event. inspect.LoadRun over the artifact
// reconstructs the job's best-error series exactly.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request, j *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", j.ID()+".jsonl"))
	_ = telemetry.WriteJSONL(w, artifactEvents(j))
}

// handleTrace exports a job's event log as Chrome/Perfetto trace-event JSON
// (load it at https://ui.perfetto.dev). Jobs restored from disk have no
// timed events, so their traces are empty by design — the checkpoint
// persists results, not wall-clock timings.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request, j *Job) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", j.ID()+".trace.json"))
	_ = telemetry.WriteTrace(w, artifactEvents(j))
}
