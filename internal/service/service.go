// Package service wraps Datamime's search loop in a long-running
// benchmark-generation service: a bounded worker pool executes search jobs
// submitted over HTTP/JSON, a content-addressed evaluation cache shares
// profiling work across jobs (and, via /v1/cache, across a worker fleet),
// per-job JSON checkpoints make every in-flight search resumable after a
// crash or restart, and a dispatcher can shard candidate evaluations across
// registered datamime-worker processes. cmd/datamimed is the server binary.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"datamime/internal/backend"
	"datamime/internal/core"
	"datamime/internal/corpus"
	"datamime/internal/datagen"
	"datamime/internal/telemetry"
)

// Config configures a Server.
type Config struct {
	// Workers is the worker-pool size: how many search jobs run
	// concurrently (default 2). Each job may additionally evaluate
	// candidates in parallel per its spec.
	Workers int
	// QueueDepth bounds the number of queued jobs (default 1024); Submit
	// fails once full.
	QueueDepth int
	// CacheCapacity bounds the shared evaluation cache (default 4096
	// profiles).
	CacheCapacity int
	// DefaultProfileWorkers is the intra-profile parallelism (concurrent
	// way-curve simulator runs) for jobs whose spec does not set
	// profiling.profile_workers. 0 leaves profiles serial. Profiles are
	// bit-identical at any setting.
	DefaultProfileWorkers int
	// CheckpointDir, when non-empty, enables persistence: every job is
	// checkpointed there after each batch, and New resumes unfinished
	// jobs found in it.
	CheckpointDir string
	// Generators registers extra dataset generators beyond the built-in
	// Table III set (datagen.All), e.g. custom §III-B generators.
	Generators []datagen.Generator
	// Log, when non-nil, receives one line per job state transition
	// (rendered by telemetry.NewLineLogger).
	Log io.Writer
	// Telemetry enables per-job span recording: each running job gets a
	// telemetry.Recorder whose phase spans feed the /metrics latency
	// histograms and the job's SSE event stream. Off by default; eval
	// events (and therefore /events and /artifact) work either way —
	// telemetry only adds the phase spans.
	Telemetry bool
	// SSEMaxBacklog bounds how many undelivered events a slow /events
	// subscriber may accumulate before the oldest are dropped (default
	// 4096). Dropping never blocks the search goroutine; the subscriber
	// receives a "dropped" SSE frame carrying the count.
	SSEMaxBacklog int
	// WorkerURLs statically registers remote datamime-worker endpoints at
	// startup (cmd/datamimed -worker). Workers may also self-register at
	// runtime via POST /v1/workers.
	WorkerURLs []string
	// DispatchTimeout bounds one remote evaluation attempt (default 5m).
	DispatchTimeout time.Duration
	// DispatchRetries is the number of additional remote attempts after a
	// failure before an evaluation falls back to in-process execution
	// (default 2).
	DispatchRetries int
	// DispatchMaxQueue bounds evaluations waiting for a remote slot;
	// beyond it admission control sheds work to the local backend
	// (default 64).
	DispatchMaxQueue int
	// WorkerHealthInterval is the fleet health-probe period (default 15s).
	WorkerHealthInterval time.Duration
	// CorpusDir, when non-empty, enables the persistent run corpus: every
	// finished job is indexed there (summary record + content-addressed
	// JSONL artifact), the regression watchdog judges it against the
	// scenario baseline, and GET /v1/corpus serves longitudinal queries.
	CorpusDir string
}

// Server schedules and tracks search jobs. Create with New, serve its
// Handler, and Close it to shut down (running jobs are checkpointed and
// re-queued for the next start).
type Server struct {
	cfg Config
	// cache is shared by every job (a resubmitted or warm-started search
	// re-reads its profiles here) and doubles as the fleet's shared tier,
	// served to workers at /v1/cache/{key}.
	cache *backend.LRU

	// local is the in-process evaluation backend, and its generator registry
	// is the server's (resolve looks specs up in it); dispatcher shards
	// evaluations across registered datamime-worker processes, falling back
	// to local so a job never dies with the fleet. With no workers
	// registered, jobs take the classic in-process path (bit-identical by
	// the backend contract).
	local      *backend.LocalBackend
	dispatcher *backend.Dispatcher

	// corpus is the persistent run index (nil unless Config.CorpusDir is
	// set); indexRun appends to it on every job completion.
	corpus *corpus.Corpus

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

// New builds a Server, resumes any unfinished checkpointed jobs, and starts
// the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.SSEMaxBacklog <= 0 {
		cfg.SSEMaxBacklog = 4096
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		cache:      backend.NewLRU(cfg.CacheCapacity),
		jobs:       make(map[string]*Job),
		nextID:     1,
		queue:      make(chan *Job, cfg.QueueDepth),
		rootCtx:    ctx,
		rootCancel: cancel,
		started:    time.Now(),
	}
	if cfg.Log != nil {
		s.logger = telemetry.NewLineLogger(cfg.Log)
	}
	s.initDispatch()
	if cfg.CorpusDir != "" {
		// Open (and, if the last shutdown truncated the index tail,
		// compact) the run corpus before the metrics registry so its
		// scrape-time collectors can close over it.
		c, err := corpus.Open(cfg.CorpusDir)
		if err != nil {
			cancel()
			return nil, err
		}
		s.corpus = c
	}
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
	job := &Job{
		id:      fmt.Sprintf("job-%d", s.nextID),
		spec:    spec,
		plan:    p,
		state:   JobQueued,
		done:    make(chan struct{}),
		created: time.Now(),
	}
	s.nextID++
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	s.mu.Unlock()

	s.persist(job)
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

// Close shuts the server down: cancels running searches (their checkpoints
// persist), re-queues them on disk, and waits for the workers to exit.
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
	if s.corpus != nil {
		s.corpus.Close()
	}
}

// worker pulls jobs off the queue until shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		if s.rootCtx.Err() != nil {
			return // shutdown: job stays queued on disk
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
	job.state = JobRunning
	job.started = time.Now()
	job.cancel = cancel
	resume := job.checkpoint.Clone()
	job.mu.Unlock()
	s.persist(job)
	s.logf("job %s running", job.id)

	p := job.plan
	if p == nil {
		// Restored from a checkpoint whose spec no longer resolves here.
		s.finish(job, JobFailed, job.planErr.Error())
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
	job.profileWorkers = cfg.ProfileWorkers
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
					job.appendEvent(ev)
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
	if len(resume.Entries) > 0 {
		job.mu.Lock()
		// The replay rebuilds the trace, counters, and event log from
		// iteration 0.
		job.trace = nil
		job.events = nil
		job.evals, job.cacheHits, job.cacheMisses, job.skipped, job.simCycles = 0, 0, 0, 0, 0
		job.mu.Unlock()
		cfg.Resume = &resume
	}
	cfg.OnEval = func(ev core.EvalEvent) { s.foldEval(job, ev) }
	cfg.OnCheckpoint = func(cp core.Checkpoint) {
		job.mu.Lock()
		job.checkpoint = cp
		job.mu.Unlock()
		s.persist(job)
	}

	res, err := core.SearchContext(ctx, cfg)
	switch {
	case err == nil:
		result := &JobResult{
			BestParams:  res.BestParams,
			BestError:   res.BestError,
			Evaluations: res.Evaluations,
			CacheHits:   res.CacheHits,
			Skipped:     res.Skipped,
			Components:  res.BestComponents(),
		}
		if res.BestParams != nil {
			result.BestValues = cfg.Generator.Space.Values(res.BestParams)
		}
		job.mu.Lock()
		job.result = result
		job.bestProf = res.BestProfile
		job.mu.Unlock()
		// Index into the run corpus (and run the regression watchdog)
		// before finish: a corpus.regression event appended here still
		// reaches SSE subscribers ahead of the terminal "done" frame.
		s.indexRun(job)
		s.finish(job, JobSucceeded, "")
	case ctx.Err() != nil:
		s.endInterrupted(job)
	default:
		s.finish(job, JobFailed, err.Error())
	}
}

// foldEval folds one iteration of a running search into its job (addEval)
// and the server's counters, with or without telemetry. A replayed
// iteration's surrogate was refit, so its snapshot still counts.
func (s *Server) foldEval(job *Job, ev core.EvalEvent) {
	job.addEval(ev, time.Now().UnixNano())
	if d := ev.Record.Diagnostics; d != nil && d.JitterLevel > 0 {
		s.metrics.gpJitterEscalations.Inc()
	}
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
}

// endInterrupted resolves a context-terminated job: client cancels become
// terminal, server shutdowns re-queue the job (on disk) for the next start.
func (s *Server) endInterrupted(job *Job) {
	job.mu.Lock()
	canceled := job.canceled
	job.mu.Unlock()
	if canceled {
		s.finish(job, JobCanceled, context.Canceled.Error())
		return
	}
	// Server shutdown: persist as queued so loadCheckpoints resumes it.
	job.mu.Lock()
	job.state = JobQueued
	checkpointed := len(job.checkpoint.Entries)
	job.mu.Unlock()
	s.persist(job)
	s.logf("job %s interrupted by shutdown; checkpointed at %d iterations",
		job.id, checkpointed)
}

// finish moves a job to a terminal state and persists it.
func (s *Server) finish(job *Job, state JobState, errMsg string) {
	job.mu.Lock()
	if job.state.terminal() {
		job.mu.Unlock()
		return
	}
	job.state = state
	job.errMsg = errMsg
	job.finished = time.Now()
	done := job.done
	job.wakeLocked() // SSE subscribers observe the terminal state
	job.mu.Unlock()
	close(done)
	s.persist(job)
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
