package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"datamime/internal/buildinfo"
	"datamime/internal/corpus"
	"datamime/internal/inspect"
	"datamime/internal/profile"
	"datamime/internal/telemetry"
)

// scenarioSpec is the canonical semantic subset of a JobSpec that defines a
// corpus scenario: two jobs with equal scenario hashes are required (by the
// determinism invariants, DESIGN §3c/§3e) to produce bit-identical results,
// so any divergence between them is a real behavior change. Backend, which
// only moves where work executes, is deliberately excluded, mirroring what
// core.EvalKey excludes. The seed is included: different seeds legitimately
// converge differently.
type scenarioSpec struct {
	Workload      string          `json:"workload,omitempty"`
	Generator     string          `json:"generator,omitempty"`
	Machine       string          `json:"machine"`
	Iterations    int             `json:"iterations"`
	Parallel      int             `json:"parallel"`
	Seed          uint64          `json:"seed"`
	Optimizer     string          `json:"optimizer"`
	TargetProfile json.RawMessage `json:"target_profile,omitempty"`
	Metric        string          `json:"metric,omitempty"`
	MetricValue   float64         `json:"metric_value,omitempty"`
	OnEvalError   string          `json:"on_eval_error"`

	// Profiler budgets change the simulated measurements, so they are
	// semantic, and so is how a profile is measured: a run recorded before
	// profiles were one pass is another scenario.
	ProfilingSpec
	ProfileMethod string `json:"profile_method"`
}

// scenarioHash fingerprints the semantic fields of spec. The job-level
// defaults (machine, parallel, optimizer, on_eval_error) are normalized by
// withDefaults, as resolve reads them, so "omitted" and "explicitly default"
// hash equally; the profiling budgets are hashed as submitted, so an explicit
// default budget and an omitted one are different scenarios.
func scenarioHash(spec JobSpec) string {
	spec = spec.withDefaults()
	ss := scenarioSpec{
		Workload:      spec.Workload,
		Generator:     spec.Generator,
		Machine:       spec.Machine,
		Iterations:    spec.Iterations,
		Parallel:      spec.Parallel,
		Seed:          spec.Seed,
		Optimizer:     spec.Optimizer,
		Metric:        spec.Metric,
		MetricValue:   spec.MetricValue,
		OnEvalError:   spec.OnEvalError,
		ProfileMethod: profile.Method,
	}
	if len(spec.TargetProfile) > 0 {
		// Compact the inline profile so formatting differences in the
		// submitted JSON don't split one scenario into many.
		var buf bytes.Buffer
		if err := json.Compact(&buf, spec.TargetProfile); err == nil {
			ss.TargetProfile = json.RawMessage(buf.Bytes())
		} else {
			ss.TargetProfile = spec.TargetProfile
		}
	}
	if p := spec.Profiling; p != nil {
		ss.ProfilingSpec = *p
	}
	h, err := corpus.HashJSON(ss)
	if err != nil {
		// Unreachable for a validated spec, but never let hashing take a
		// job down; an empty scenario just opts the run out of baselining.
		return ""
	}
	return h
}

// indexRun adds a just-succeeded job to the run corpus and judges it against
// the scenario baseline, the scenario's earliest record: the first run of a
// scenario is its baseline, and every later run takes the verdict
// inspect.DiffRuns gives it against the baseline job's run — the judgment
// `datamime-inspect diff` prints for the two jobs' logs or /artifact URLs.
// The record becomes the job's corpus.record line. Called on the job's worker
// goroutine before finish(), so that line, and a corpus.regression event
// appended here, precede the terminal state in the log and reach the job's
// followers before its live stream ends. Indexing failures are logged,
// never fatal: the job's own result is already safe.
func (s *Server) indexRun(job *Job) {
	job.mu.Lock()
	p := job.plan
	started := job.started
	backendName := job.backend
	run, err := &job.run, job.foldErr
	// The record is a view of the run's report: every figure below is read
	// off it, none derived a second time. The report is made under the lock,
	// as a fleet event may still add a span to the run; its evals are final.
	var report *inspect.Report
	if err == nil {
		report = inspect.NewReport(run, nil, "")
	}
	job.mu.Unlock()
	if err != nil {
		s.logf("job %s corpus: artifact parse failed: %v", job.ID(), err)
		return
	}

	rec := corpus.Record{
		ID:             job.ID(),
		Scenario:       scenarioHash(p.spec),
		Target:         p.target,
		Generator:      p.generator.Name,
		Seed:           p.spec.Seed,
		Backend:        backendName,
		Build:          buildinfo.Read().String(),
		BestError:      report.Best.Error,
		BestIter:       report.Best.Iteration,
		Components:     report.Best.Components,
		Iterations:     p.spec.Iterations,
		Evals:          report.Counts.Evals,
		CacheHits:      report.Counts.CacheHits,
		Skipped:        report.Counts.Skipped,
		TrajectoryHash: corpus.TrajectoryHash(report.Trace),
		ModelHealth:    report.Health.ModelHealth(),
	}
	if !started.IsZero() {
		rec.WallSeconds = time.Since(started).Seconds()
	}

	var d *inspect.RunDiff
	s.recordsMu.Lock()
	rec.FinishedAt = time.Now().UTC()
	bl := slices.IndexFunc(s.records, func(r corpus.Record) bool { return r.Scenario == rec.Scenario })
	if bl < 0 || rec.Scenario == "" {
		rec.Verdict = corpus.VerdictBaseline
	} else if blJob, ok := s.Job(s.records[bl].ID); !ok {
		s.logf("job %s corpus: indexed without a verdict, baseline %s is not a job here", job.ID(), s.records[bl].ID)
	} else {
		// The baseline job's search has ended, so its evals are final too.
		blJob.mu.Lock()
		baseRun, err := &blJob.run, blJob.foldErr
		blJob.mu.Unlock()
		if err != nil {
			s.logf("job %s corpus: indexed without a verdict, baseline %s unreadable: %v", job.ID(), blJob.ID(), err)
		} else {
			d = inspect.DiffRuns(baseRun, run, inspect.DiffOptions{})
			rec.Verdict = d.Verdict
			rec.BaselineID = blJob.ID()
			rec.BaselineDelta = d.BestError.Delta
		}
	}
	s.records = append(s.records, rec)
	s.recordsMu.Unlock()

	s.metrics.corpusIndexed.Inc()
	if rec.Verdict != "" {
		s.metrics.corpusVerdicts.With(rec.Verdict).Inc()
	}
	if d == nil || !d.Regressed() {
		s.logf("job %s indexed into corpus (scenario %s, verdict %s)",
			job.ID(), rec.Scenario, rec.Verdict)
	} else {
		s.metrics.corpusRegressions.Inc()
		msg := fmt.Sprintf("corpus regression vs baseline %s: %s",
			rec.BaselineID, strings.Join(d.Regressions, "; "))
		s.addEvent(job, telemetry.Event{
			Type:   telemetry.TypeCorpusRegression,
			Job:    job.ID(),
			TimeNS: time.Now().UnixNano(),
			Msg:    msg,
			Attrs: map[string]float64{
				telemetry.AttrBestError: rec.BestError,
				"baseline_delta":        rec.BaselineDelta,
			},
		})
		s.logf("job %s %s", job.ID(), msg)
	}
	job.mu.Lock()
	s.addLocked(job, jobLine{Event: telemetry.Event{Type: corpus.TypeRecord}, Record: &rec})
	job.mu.Unlock()
}

// corpusListResponse is the GET /v1/corpus body.
type corpusListResponse struct {
	Runs []corpus.Record `json:"runs"`
	// Total counts the corpus's records, before filtering.
	Total int `json:"total"`
}

// handleCorpus serves GET /v1/corpus with optional scenario=, target=,
// since=, until= (RFC 3339) and limit= filters.
func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := corpus.Filter{
		Scenario: q.Get("scenario"),
		Target:   q.Get("target"),
	}
	for name, dst := range map[string]*time.Time{"since": &f.Since, "until": &f.Until} {
		if v := q.Get(name); v != "" {
			t, err := time.Parse(time.RFC3339, v)
			if err != nil {
				writeError(w, http.StatusBadRequest,
					fmt.Errorf("service: bad %s %q: want RFC 3339", name, v))
				return
			}
			*dst = t
		}
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad limit %q", v))
			return
		}
		f.Limit = n
	}
	s.recordsMu.Lock()
	resp := corpusListResponse{Runs: corpus.Select(s.records, f), Total: len(s.records)}
	s.recordsMu.Unlock()
	if resp.Runs == nil {
		resp.Runs = []corpus.Record{}
	}
	writeJSON(w, http.StatusOK, resp)
}
