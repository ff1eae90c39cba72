// Package service wraps Datamime's search loop in a long-running
// benchmark-generation service: a bounded worker pool executes search jobs
// submitted over HTTP/JSON, a content-addressed evaluation cache shares
// profiling work across jobs (a dispatched evaluation is looked up there
// before it leaves), each job's append-only event log makes its search
// resumable after a crash or restart, and a dispatcher can shard candidate
// evaluations across registered datamime-worker processes. A job is served
// as its record (status, profiles, and its artifact, whole or followed
// live); clients such as datamime-inspect render reports and traces from
// it. A succeeded job's log also carries its run-corpus record, judged
// against its scenario's baseline, so the corpus is the succeeded jobs (GET
// /v1/corpus). cmd/datamimed is the server binary.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"datamime/internal/backend"
	"datamime/internal/core"
	"datamime/internal/corpus"
	"datamime/internal/datagen"
	"datamime/internal/profile"
	"datamime/internal/telemetry"
)

// Config configures a Server.
type Config struct {
	// Workers is the worker-pool size: how many search jobs run
	// concurrently (default 2). Each job may additionally evaluate
	// candidates in parallel per its spec.
	Workers int
	// CheckpointDir, when non-empty, enables persistence: every job appends
	// everything it records to its log there, <id>.jsonl, as it happens, and
	// New restores the logged jobs, resuming unfinished ones from their last
	// logged iteration.
	CheckpointDir string
	// Generators registers extra dataset generators beyond the built-in
	// Table III set (datagen.All), e.g. custom §III-B generators.
	Generators []datagen.Generator
	// Log, when non-nil, receives one line per job state transition
	// (rendered by telemetry.NewLineLogger).
	Log io.Writer
	// Telemetry enables per-job span recording: each running job gets a
	// telemetry.Recorder whose phase spans feed the /metrics latency
	// histograms and the job's artifact, live stream included. Off by
	// default; eval events (and therefore /artifact) work either way —
	// telemetry only adds the phase spans.
	Telemetry bool
	// WorkerURLs statically registers remote datamime-worker endpoints at
	// startup (cmd/datamimed -worker). Workers may also self-register at
	// runtime via POST /v1/workers.
	WorkerURLs []string
}

// Server schedules and tracks search jobs. Create with New, serve its
// Handler, and Close it to shut down (running jobs are logged as queued, for
// the next start to resume).
type Server struct {
	cfg Config
	// cache is shared by every job (a resubmitted or warm-started search
	// re-reads its profiles here) and is the fleet's one evaluation cache:
	// a search looks a candidate up in it before dispatching it.
	cache *backend.LRU

	// local is the in-process evaluation backend, and its generator registry
	// is the server's (resolve looks specs up in it); dispatcher shards
	// evaluations across registered datamime-worker processes, falling back
	// to local so a job never dies with the fleet. With no workers
	// registered, jobs take the classic in-process path (bit-identical by
	// the backend contract).
	local      *backend.LocalBackend
	dispatcher *backend.Dispatcher

	// records is the run corpus: the record of every succeeded job that
	// carries one, restored ones included, in corpus order (corpus.Sort).
	// indexRun appends to it under recordsMu, which it holds while it picks
	// and judges against the baseline.
	recordsMu sync.Mutex
	records   []corpus.Record

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for listing
	nextID int
	closed bool

	queue chan *Job

	rootCtx    context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup

	// metrics is the unified registry behind /metrics: global counters
	// accumulated across all jobs (including finished ones, which drop out
	// of per-job counters when the map is inspected), worker/contention
	// metrics fed from telemetry spans, and scrape-time collectors over
	// the job table and evaluation cache.
	metrics *serverMetrics

	logger  *slog.Logger
	started time.Time
}

// queueDepth bounds the number of queued jobs; Submit fails once full.
const queueDepth = 1024

// cacheCapacity bounds the shared evaluation cache, in profiles.
const cacheCapacity = 4096

// New builds a Server, restores the jobs logged in Config.CheckpointDir
// (resuming unfinished ones), and starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		cache:      backend.NewLRU(cacheCapacity),
		jobs:       make(map[string]*Job),
		nextID:     1,
		queue:      make(chan *Job, queueDepth),
		rootCtx:    ctx,
		rootCancel: cancel,
		started:    time.Now(),
	}
	if cfg.Log != nil {
		s.logger = telemetry.NewLineLogger(cfg.Log)
	}
	s.initDispatch()
	s.metrics = newServerMetrics(s)
	if err := s.loadCheckpoints(); err != nil {
		cancel()
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Workers returns the worker-pool size.
func (s *Server) Workers() int { return s.cfg.Workers }

// Cache returns the shared evaluation cache.
func (s *Server) Cache() *backend.LRU { return s.cache }

// errUnavailable marks the Submit failures that are the server's condition,
// not the spec's fault — a full queue, a closed server. The handler answers
// them 503, as a worker's shed does, and everything else 400.
var errUnavailable = errors.New("service: unavailable")

// Submit resolves and enqueues a job, returning its assigned ID. A spec that
// does not resolve creates no job.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	p, err := s.resolve(spec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: server is shut down", errUnavailable)
	}
	job := &Job{id: fmt.Sprintf("job-%d", s.nextID), plan: p, done: make(chan struct{})}
	if dir := s.cfg.CheckpointDir; dir != "" {
		job.logPath = filepath.Join(dir, job.id+".jsonl")
	}
	// The header starts the job's record and creates its log.
	s.addLocked(job, jobLine{Event: telemetry.Event{Type: typeJobSpec, TimeNS: time.Now().UnixNano()}, Spec: &spec, Method: profile.Method})
	s.nextID++
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	s.mu.Unlock()

	select {
	case s.queue <- job:
	default:
		s.finish(job, JobFailed, "service: job queue is full")
		return nil, fmt.Errorf("%w: job queue is full", errUnavailable)
	}
	s.logf("job %s queued (target=%s generator=%s iterations=%d)", job.id, p.target, p.generator.Name, spec.Iterations)
	return job, nil
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel cancels a job: a queued job finishes immediately, a running one
// stops within roughly one evaluation batch.
func (s *Server) Cancel(id string) error {
	j, ok := s.Job(id)
	if !ok {
		return fmt.Errorf("service: no job %q", id)
	}
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return nil
	}
	j.canceled = true
	cancel := j.cancel
	queued := j.state == JobQueued
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if queued {
		// The worker skips canceled queued jobs; finish it now so
		// clients observe the terminal state promptly.
		s.finish(j, JobCanceled, "canceled before start")
	}
	return nil
}

// Close shuts the server down: cancels running searches, logs them as
// queued, and waits for the workers to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.rootCancel()
	close(s.queue)
	s.wg.Wait()
}

// worker pulls jobs off the queue until shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		if s.rootCtx.Err() != nil {
			return // shutdown: the job stays queued in its log
		}
		job.mu.Lock()
		skip := job.canceled || job.state.terminal()
		job.mu.Unlock()
		if skip {
			continue
		}
		s.metrics.workersBusy.Add(1)
		s.runJob(job)
		s.metrics.workersBusy.Add(-1)
	}
}

// runJob executes one search to completion, cancellation, or shutdown.
func (s *Server) runJob(job *Job) {
	ctx, cancel := context.WithCancel(s.rootCtx)
	defer cancel()

	job.mu.Lock()
	job.cancel = cancel
	s.setStateLocked(job, JobRunning, "")
	// A restored job resumes from the evaluations its log holds, up to the
	// first without its point, which cannot be replayed.
	resume, err := slices.Clone(job.run.Evals), job.foldErr
	if i := slices.IndexFunc(resume, func(ev core.EvalEvent) bool { return len(ev.U) == 0 }); i >= 0 {
		resume = resume[:i]
	}
	job.mu.Unlock()
	s.logf("job %s running", job.id)

	p := job.plan
	if p == nil {
		err = job.planErr // restored from a log whose spec no longer resolves here
	}
	if err != nil {
		s.finish(job, JobFailed, err.Error())
		return
	}
	cfg, err := s.buildSearch(ctx, p)
	if err != nil {
		if ctx.Err() != nil {
			s.endInterrupted(job)
			return
		}
		s.finish(job, JobFailed, err.Error())
		return
	}
	cfg.Cache = s.cache
	var dispatchEv *backend.SearchEvaluator
	if b := p.evalBackend(s.dispatcher); b != nil {
		// Shard cache-missing candidate evaluations across the fleet. The
		// coordinator-side cache lookup, keys, seeds, and scoring stay in
		// core, so a dispatched job's counters and artifacts stay
		// bit-identical to an in-process run of the same seed.
		dispatchEv = backend.NewSearchEvaluator(b, cfg.Generator.Name, cfg.Profiler)
		dispatchEv.OnResult = s.metrics.observeDispatch
		cfg.Evaluator = dispatchEv
	}
	job.mu.Lock()
	job.backend = "local"
	if dispatchEv != nil {
		job.backend = "dispatch"
	}
	job.mu.Unlock()
	if po, ok := cfg.Objective.(core.ProfileObjective); ok {
		job.mu.Lock()
		job.targetProf = po.Target
		job.mu.Unlock()
	}
	if s.cfg.Telemetry {
		rec := telemetry.New(telemetry.Options{
			OnEvent: func(ev telemetry.Event) {
				// Eval events and their search-health snapshots are built
				// in OnEval below (they flow with telemetry off too); only
				// spans pass through.
				if ev.Type == telemetry.TypeSpan {
					ev.Job = job.id
					s.metrics.observeSpan(ev)
					s.addEvent(job, ev)
				}
			},
		})
		job.mu.Lock()
		job.recorder = rec
		job.mu.Unlock()
		cfg.Telemetry = rec
		cfg.Profiler.Telemetry = rec
		if dispatchEv != nil {
			dispatchEv.Telemetry = rec
		}
	}
	cfg.Resume = resume
	cfg.OnEval = func(ev core.EvalEvent) { s.foldEval(job, ev) }

	res, err := core.SearchContext(ctx, cfg)
	switch {
	case err == nil:
		job.mu.Lock()
		job.bestProf = res.BestProfile
		job.mu.Unlock()
		// Index into the run corpus (and run the regression watchdog)
		// before finish: a corpus.regression event and the record line
		// appended here precede the terminal state, in the log and on the
		// job's live stream.
		s.indexRun(job)
		s.finish(job, JobSucceeded, "")
	case ctx.Err() != nil:
		s.endInterrupted(job)
	default:
		s.finish(job, JobFailed, err.Error())
	}
}

// foldEval records one iteration of a running search in its job (its
// search.diagnostics event when the record carries a snapshot, then its eval
// event) and counts it in the server's metrics, with or without telemetry. A
// replayed iteration is already in the job's record, from its log, and
// counted; a live eval of an iteration the record holds means the replay
// diverged, and the job rewinds to it first.
func (s *Server) foldEval(job *Job, ev core.EvalEvent) {
	if ev.Replayed {
		return
	}
	if ev.Skipped {
		s.metrics.skippedTotal.Inc()
	} else {
		s.metrics.evalsTotal.Inc()
	}
	if ev.Retried {
		s.metrics.retriedTotal.Inc()
	}
	if ev.SimCycles > 0 {
		s.metrics.cyclesTotal.Add(ev.SimCycles)
	}

	var tevs []telemetry.Event
	if dev, ok := ev.DiagnosticsEvent(); ok {
		tevs = append(tevs, dev)
	}
	tevs = append(tevs, ev.TelemetryEvent())
	now := time.Now().UnixNano()
	job.mu.Lock()
	defer job.mu.Unlock()
	if it := ev.Record.Iteration; it < len(job.run.Evals) {
		s.rewindLocked(job, it)
	}
	for _, tev := range tevs {
		tev.Job, tev.TimeNS = job.id, now
		s.addLocked(job, jobLine{Event: tev})
	}
}

// endInterrupted resolves a context-terminated job: client cancels become
// terminal, server shutdowns log the job as queued for the next start.
func (s *Server) endInterrupted(job *Job) {
	job.mu.Lock()
	canceled := job.canceled
	job.mu.Unlock()
	if canceled {
		s.finish(job, JobCanceled, context.Canceled.Error())
		return
	}
	// Server shutdown: log the job as queued; loadCheckpoints resumes it.
	job.mu.Lock()
	s.setStateLocked(job, JobQueued, "")
	logged := len(job.run.Evals)
	job.mu.Unlock()
	s.logf("job %s interrupted by shutdown; %d iterations logged", job.id, logged)
}

// finish moves a job to a terminal state, which addLocked logs and announces
// to the job's followers.
func (s *Server) finish(job *Job, state JobState, errMsg string) {
	job.mu.Lock()
	if job.state.terminal() {
		job.mu.Unlock()
		return
	}
	s.setStateLocked(job, state, errMsg)
	done := job.done
	job.mu.Unlock()
	close(done)
	if errMsg != "" {
		s.logf("job %s %s: %s", job.id, state, errMsg)
	} else {
		s.logf("job %s %s", job.id, state)
	}
}

// jobCounts returns the number of jobs per state.
func (s *Server) jobCounts() map[JobState]int {
	counts := make(map[JobState]int)
	for _, j := range s.Jobs() {
		j.mu.Lock()
		counts[j.state]++
		j.mu.Unlock()
	}
	return counts
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.logger != nil {
		s.logger.Info("datamimed: " + fmt.Sprintf(format, args...))
	}
}

// allStates lists every job state in a stable order for /metrics output.
func allStates() []JobState {
	return []JobState{JobQueued, JobRunning, JobSucceeded, JobFailed, JobCanceled}
}
