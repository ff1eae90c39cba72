package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"datamime/internal/corpus"
	"datamime/internal/datagen"
	"datamime/internal/profile"
	"datamime/internal/telemetry"
)

// A job persists as its log, <CheckpointDir>/<id>.jsonl: a job.spec header,
// then its events and a job.state line per transition — and, for a succeeded
// job, its corpus.record line before the terminal one — each appended as one
// whole O_APPEND line as it happens. A restart folds the log back
// (Job.applyLocked) and resumes an unfinished job from its eval events.
const (
	typeJobSpec  = "job.spec"  // the submitted spec, at the job's creation time
	typeJobState = "job.state" // one transition; a terminal one's msg is the job's error
)

// jobLine is one line of a job log. It embeds the event, so every line is an
// artifact line too: inspect.LoadRun reads a job log, skipping the job.* and
// corpus.record types.
type jobLine struct {
	telemetry.Event
	Spec *JobSpec `json:"spec,omitempty"`
	// Method is the header's profile.Method: how the job's logged
	// evaluations were measured. A header without one predates one-pass
	// profiles.
	Method string         `json:"profile_method,omitempty"`
	State  JobState       `json:"state,omitempty"`
	Record *corpus.Record `json:"record,omitempty"`
}

// setStateLocked records a state transition happening now. Callers hold j.mu.
func (s *Server) setStateLocked(j *Job, state JobState, msg string) {
	s.addLocked(j, jobLine{Event: telemetry.Event{Type: typeJobState, Msg: msg, TimeNS: time.Now().UnixNano()}, State: state})
}

// addEvent records one event of a job.
func (s *Server) addEvent(j *Job, ev telemetry.Event) {
	j.mu.Lock()
	s.addLocked(j, jobLine{Event: ev})
	j.mu.Unlock()
}

// addLocked records one line: it is folded into the job, appended to its log
// (the header creates it, never over an existing file) and announced to the
// job's followers. Callers hold j.mu, or the only reference to j.
func (s *Server) addLocked(j *Job, l jobLine) {
	j.applyLocked(l)
	j.wakeLocked()
	if j.logPath == "" {
		return
	}
	flag := os.O_WRONLY | os.O_APPEND
	if l.Type == typeJobSpec {
		flag |= os.O_CREATE | os.O_EXCL
	}
	data, err := encodeLog(l)
	if err == nil {
		var f *os.File
		if f, err = os.OpenFile(j.logPath, flag, 0o644); err == nil {
			_, err = f.Write(data) // one Write: O_APPEND keeps the line whole
			err = errors.Join(err, f.Close())
		}
	}
	if err != nil {
		s.logf("job %s: %v; the job is no longer persisted", j.id, err)
		j.logPath = ""
	}
}

// encodeLog encodes lines one per line, as /artifact encodes events.
func encodeLog(lines ...jobLine) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range lines {
		if err := enc.Encode(&lines[i]); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// readLog reads the job log at path; a torn line is skipped.
func readLog(path string) ([]jobLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []jobLine
	_, err = telemetry.ScanJSONL(f, func(l jobLine) error {
		lines = append(lines, l)
		return nil
	})
	return lines, err
}

// writeLog replaces the log at path with lines, via tmp + rename.
func writeLog(path string, lines []jobLine) error {
	data, err := encodeLog(lines...)
	if err == nil {
		err = os.WriteFile(path+".tmp", data, 0o644)
	}
	if err == nil {
		err = os.Rename(path+".tmp", path)
	}
	return err
}

// cutLog drops the events after the last eval of an iteration before the
// given one; state lines stay. Before math.MaxInt, it drops a torn tail and a
// snapshot or span whose eval was cut off.
func cutLog(lines []jobLine, before int) []jobLine {
	last := -1
	for i, l := range lines {
		if l.Type == telemetry.TypeEval && l.Iter < before {
			last = i
		}
	}
	var kept []jobLine
	for i, l := range lines {
		if i <= last || l.Type == typeJobSpec || l.Type == typeJobState {
			kept = append(kept, l)
		}
	}
	return kept
}

// replayLog rebuilds job id from its log's lines, the first of which must be
// the header.
func replayLog(id string, lines []jobLine) (*Job, error) {
	if len(lines) == 0 || lines[0].Type != typeJobSpec || lines[0].Spec == nil {
		return nil, fmt.Errorf("no %s header", typeJobSpec)
	}
	j := &Job{id: id, done: make(chan struct{})}
	for _, l := range lines {
		j.applyLocked(l)
	}
	return j, nil
}

// rewindLocked drops the job's events from iteration it on, in its record and
// its log, where the replay diverged (as after a binary change). Callers hold
// j.mu.
func (s *Server) rewindLocked(j *Job, it int) {
	s.logf("job %s: the replay diverged from the log at iteration %d; evaluating from there", j.id, it)
	events, keep := j.events, 0
	for i, ev := range events {
		if ev.Type == telemetry.TypeEval && ev.Iter < it {
			keep = i + 1
		}
	}
	// A fresh slice: a follower writing from the old one keeps what it read.
	j.jobRecord = jobRecord{}
	j.rewinds++
	for _, ev := range events[:keep] {
		j.add(ev)
	}
	if j.logPath == "" {
		return
	}
	lines, err := readLog(j.logPath)
	if err == nil {
		err = writeLog(j.logPath, cutLog(lines, it))
	}
	if err != nil {
		s.logf("job %s: rewinding its log: %v; the job is no longer persisted", j.id, err)
		j.logPath = ""
	}
}

// loadCheckpoints restores the jobs logged in the checkpoint directory,
// re-queueing unfinished ones, and the corpus from the succeeded ones' record
// lines. IDs advance past every job-N.* file, so none is reissued over a file
// that did not load or predates job logs (<id>.json).
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
	var loaded []*Job
	for _, e := range entries {
		id, ext, _ := strings.Cut(e.Name(), ".")
		if seq := jobSeq(id); seq >= s.nextID {
			s.nextID = seq + 1
		}
		switch {
		case e.IsDir():
		case ext == "json":
			s.logf("%s predates job logs and is not read; job %s is not restored", e.Name(), id)
		case ext == "jsonl":
			job, err := s.loadJob(id, filepath.Join(dir, e.Name()))
			if err != nil {
				s.logf("job log %s not loaded: %v", e.Name(), err)
				continue
			}
			loaded = append(loaded, job)
		}
	}
	sort.SliceStable(loaded, func(i, j int) bool { return jobSeq(loaded[i].id) < jobSeq(loaded[j].id) })
	for _, job := range loaded {
		s.jobs[job.id] = job
		s.order = append(s.order, job.id)
		if job.state == JobSucceeded && job.rec != nil {
			s.records = append(s.records, *job.rec)
		}
		if !job.state.terminal() {
			s.queue <- job
			s.logf("job %s restored with %d logged iterations; re-queued", job.id, job.evals+job.skipped)
		}
	}
	corpus.Sort(s.records)
	return nil
}

// loadJob restores one job from its log, compacting it first if unfinished.
func (s *Server) loadJob(id, path string) (*Job, error) {
	lines, err := readLog(path)
	if err != nil {
		return nil, err
	}
	job, err := replayLog(id, lines)
	if err != nil {
		return nil, err
	}
	if !job.state.terminal() {
		lines = cutLog(lines, math.MaxInt)
		if err := writeLog(path, lines); err != nil {
			return nil, err
		}
		job, _ = replayLog(id, lines)
		job.state = JobQueued
	}
	job.logPath = path
	// The plan is a pure function of the spec and this server's registries,
	// so it is rebuilt, not persisted.
	if job.plan, job.planErr = s.resolve(job.spec); job.planErr != nil {
		s.logf("job %s: restored spec no longer resolves: %v", id, job.planErr)
	} else if err := resumable(job); err != nil {
		job.plan, job.planErr = nil, err
		job.state, job.errMsg = JobFailed, err.Error()
		s.logf("job %s: %v", id, err)
	}
	if job.state.terminal() {
		close(job.done)
	}
	return job, nil
}

// resumable reports why an unfinished job cannot resume from its log. A
// resume denormalizes every logged point, so a log that does not fit fails
// the job here, once, instead of panicking it. A resume also replays the
// logged errors as its own, so a log measured by another profile method
// would mix two methods in one run, filed under this method's scenario.
func resumable(job *Job) error {
	if err := logFits(job.plan.generator, job.events); err != nil {
		return err
	}
	if !job.state.terminal() && job.method != profile.Method {
		method := job.method
		if method == "" {
			method = "none recorded"
		}
		return fmt.Errorf("restored job log cannot resume: its evaluations were measured by profile method %q, this server measures %q",
			method, profile.Method)
	}
	return nil
}

// logFits reports a logged point not in the generator's space, as a generator
// re-registered with another space, or an edited file, leaves behind.
func logFits(g datagen.Generator, events []telemetry.Event) error {
	for _, ev := range events {
		if ev.Type == telemetry.TypeEval && len(ev.U) > 0 && len(ev.U) != g.Space.Dim() {
			return fmt.Errorf("restored job log does not fit generator %q: iteration %d has %d dimensions, the generator takes %d",
				g.Name, ev.Iter, len(ev.U), g.Space.Dim())
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
