package service

import (
	"fmt"
	"net/http"
	"strconv"

	"datamime/internal/telemetry"
)

// artifactHeader is the log line that opens a job's artifact.
func artifactHeader(id string, state JobState, events int) telemetry.Event {
	return telemetry.Event{
		Type: telemetry.TypeLog,
		Job:  id,
		Msg:  fmt.Sprintf("datamime run artifact: state=%s events=%d", state, events),
	}
}

// artifactEvents assembles a job's complete artifact event sequence: the
// header log line followed by every recorded event. A job restored from its
// log holds the events it recorded live, so its artifact is the live one.
func artifactEvents(j *Job) []telemetry.Event {
	j.mu.Lock()
	events, state := j.events, j.state
	j.mu.Unlock()
	return append([]telemetry.Event{artifactHeader(j.ID(), state, len(events))}, events...)
}

// handleArtifact exports a job's JSONL run artifact: a log header line
// followed by every recorded event. inspect.LoadRun over the artifact
// reconstructs the job's best-error series exactly.
//
// With ?follow=1 it is the job's live stream: after those lines it writes
// each event the job records, and ends once the job is terminal. The log is
// append-only, so each reader writes from its own index into it, with no copy:
// a stalled reader stalls only itself and the server holds no backlog for it.
// A stream that cannot end at the job's terminal state is aborted instead —
// when a diverged replay rewinds the log, or the server shuts down — so a
// follower never splices two histories, nor takes a cut for the end.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request, j *Job) {
	follow, _ := strconv.ParseBool(r.URL.Query().Get("follow"))
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", j.ID()+".jsonl"))

	j.mu.Lock()
	events, state, rewinds, sig := j.events, j.state, j.rewinds, j.sigLocked()
	j.mu.Unlock()
	if telemetry.WriteJSONL(w, []telemetry.Event{artifactHeader(j.ID(), state, len(events))}) != nil {
		return
	}
	for written := 0; ; {
		if telemetry.WriteJSONL(w, events[written:]) != nil {
			return
		}
		written = len(events)
		if !follow || state.terminal() {
			return
		}
		if http.NewResponseController(w).Flush() != nil {
			return
		}
		select {
		case <-sig:
		case <-r.Context().Done():
			return
		case <-s.rootCtx.Done():
			panic(http.ErrAbortHandler)
		}
		j.mu.Lock()
		events, state, sig = j.events, j.state, j.sigLocked()
		rewound := j.rewinds != rewinds
		j.mu.Unlock()
		if rewound {
			panic(http.ErrAbortHandler)
		}
	}
}
