package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"datamime/internal/core"
)

// persistedJob is the on-disk representation of one job: everything needed
// to resume it (spec + checkpoint) or to report it after a restart
// (state, error, result). Profiles are deliberately not persisted — they
// are reproducible from the checkpoint, and the evaluation cache makes the
// reproduction cheap.
type persistedJob struct {
	ID         string          `json:"id"`
	Spec       JobSpec         `json:"spec"`
	State      JobState        `json:"state"`
	Error      string          `json:"error,omitempty"`
	Checkpoint core.Checkpoint `json:"checkpoint"`
	Result     *JobResult      `json:"result,omitempty"`
	Created    time.Time       `json:"created"`
	Started    time.Time       `json:"started,omitempty"`
	Finished   time.Time       `json:"finished,omitempty"`
}

// persist writes the job's current state atomically (tmp + rename) into the
// checkpoint directory. A no-op when persistence is disabled.
func (s *Server) persist(job *Job) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	job.mu.Lock()
	p := persistedJob{
		ID:         job.id,
		Spec:       job.spec,
		State:      job.state,
		Error:      job.errMsg,
		Checkpoint: job.checkpoint.Clone(),
		Result:     job.result,
		Created:    job.created,
		Started:    job.started,
		Finished:   job.finished,
	}
	job.mu.Unlock()
	if p.State == JobRunning {
		// A running job that dies with the server must come back as
		// queued-with-checkpoint.
		p.State = JobQueued
	}
	data, err := json.Marshal(p)
	if err != nil {
		s.logf("job %s: encoding checkpoint: %v", job.id, err)
		return
	}
	path := filepath.Join(s.cfg.CheckpointDir, p.ID+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		s.logf("job %s: writing checkpoint: %v", job.id, err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		s.logf("job %s: committing checkpoint: %v", job.id, err)
	}
}

// loadCheckpoints restores jobs from the checkpoint directory: finished
// jobs become queryable again (their traces and event logs rebuilt from
// checkpoints), and unfinished ones are re-queued with their checkpoints as
// warm starts.
func (s *Server) loadCheckpoints() error {
	dir := s.cfg.CheckpointDir
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("service: checkpoint dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("service: checkpoint dir: %w", err)
	}
	var loaded []persistedJob
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("service: reading checkpoint %s: %w", name, err)
		}
		var p persistedJob
		if err := json.Unmarshal(data, &p); err != nil {
			s.logf("skipping corrupt checkpoint %s: %v", name, err)
			continue
		}
		loaded = append(loaded, p)
	}
	sort.Slice(loaded, func(i, j int) bool { return jobSeq(loaded[i].ID) < jobSeq(loaded[j].ID) })

	for _, p := range loaded {
		job := &Job{
			id:         p.ID,
			spec:       p.Spec,
			state:      p.State,
			errMsg:     p.Error,
			checkpoint: p.Checkpoint,
			result:     p.Result,
			done:       make(chan struct{}),
			created:    p.Created,
			started:    p.Started,
			finished:   p.Finished,
		}
		if seq := jobSeq(p.ID); seq >= s.nextID {
			s.nextID = seq + 1
		}
		// The plan is a pure function of the spec and this server's
		// registries, so it is rebuilt, not persisted.
		if job.plan, job.planErr = s.resolve(p.Spec); job.planErr != nil {
			s.logf("job %s: restored spec no longer resolves: %v", job.id, job.planErr)
		}
		// Rebuild the trace, counters and event log of finished jobs from
		// what the checkpoint knows, so status, result, artifact and report
		// stay queryable across restarts; resumed jobs rebuild theirs live.
		// The events carry no clock (no timeline, an empty trace export).
		if job.state.terminal() {
			close(job.done)
			if job.plan != nil {
				for _, ev := range evalsFromCheckpoint(job.plan.generator.Space, p.Checkpoint) {
					job.addEval(ev, 0)
				}
				// Which evaluations hit the cache is not checkpointed; their
				// number is, with the result.
				if p.Result != nil {
					job.cacheHits = p.Result.CacheHits
				}
				job.cacheMisses = job.evals - job.cacheHits
			}
		}
		s.jobs[job.id] = job
		s.order = append(s.order, job.id)
		if !job.state.terminal() {
			job.state = JobQueued
			s.queue <- job
			s.logf("job %s restored with %d checkpointed iterations; re-queued",
				job.id, len(p.Checkpoint.Entries))
		}
	}
	return nil
}

// jobSeq extracts the numeric suffix of a job ID ("job-17" → 17); unknown
// formats sort first.
func jobSeq(id string) int {
	const prefix = "job-"
	if !strings.HasPrefix(id, prefix) {
		return 0
	}
	n, err := strconv.Atoi(id[len(prefix):])
	if err != nil {
		return 0
	}
	return n
}
