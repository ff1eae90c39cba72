package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"datamime/internal/buildinfo"
	"datamime/internal/corpus"
	"datamime/internal/inspect"
	"datamime/internal/telemetry"
)

// scenarioSpec is the canonical semantic subset of a JobSpec that defines a
// corpus scenario: two jobs with equal scenario hashes are required (by the
// determinism invariants, DESIGN §3c/§3e) to produce bit-identical results,
// so any divergence between them is a real behavior change. Knobs that only
// move where or how fast work executes — Backend, Profiling.ProfileWorkers —
// are deliberately excluded, mirroring what core.EvalKey excludes. The seed
// is included: different seeds legitimately converge differently.
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
	// semantic. ProfileWorkers is zeroed (and so omitted) on purpose.
	ProfilingSpec
}

// scenarioHash fingerprints the semantic fields of spec. The job-level
// defaults (machine, parallel, optimizer, on_eval_error) are normalized by
// withDefaults, as resolve reads them, so "omitted" and "explicitly default"
// hash equally; the profiling budgets are hashed as submitted, so an explicit
// default budget and an omitted one are different scenarios.
func scenarioHash(spec JobSpec) string {
	spec = spec.withDefaults()
	ss := scenarioSpec{
		Workload:    spec.Workload,
		Generator:   spec.Generator,
		Machine:     spec.Machine,
		Iterations:  spec.Iterations,
		Parallel:    spec.Parallel,
		Seed:        spec.Seed,
		Optimizer:   spec.Optimizer,
		Metric:      spec.Metric,
		MetricValue: spec.MetricValue,
		OnEvalError: spec.OnEvalError,
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
		ss.ProfileWorkers = 0
	}
	h, err := corpus.HashJSON(ss)
	if err != nil {
		// Unreachable for a validated spec, but never let hashing take a
		// job down; an empty scenario just opts the run out of baselining.
		return ""
	}
	return h
}

// indexRun appends a just-succeeded job to the run corpus and judges it
// against the scenario baseline: the first indexed run of a scenario is its
// baseline, and every later run takes the verdict inspect.DiffRuns gives it
// against the baseline's stored artifact — the judgment `datamime-inspect
// corpus compare` prints for the same pair. Called on the job's worker
// goroutine before finish(), so a corpus.regression event appended here
// still reaches SSE subscribers ahead of the terminal frame. Indexing
// failures are logged, never fatal: the job's own result is already safe.
func (s *Server) indexRun(job *Job) {
	if s.corpus == nil {
		return
	}
	run, events, err := jobRun(job)
	if err != nil {
		s.logf("job %s corpus: artifact parse failed: %v", job.ID(), err)
		return
	}
	// The one encode: these are the artifact bytes the corpus stores.
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, events); err != nil {
		s.logf("job %s corpus: artifact encode failed: %v", job.ID(), err)
		return
	}

	job.mu.Lock()
	p := job.plan
	started := job.started
	backendName := job.backend
	job.mu.Unlock()

	// The record is a view of the run's report: every figure below is read
	// off it, none derived a second time.
	report := inspect.NewReport(run, nil, "")
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
		FinishedAt:     time.Now().UTC(),
	}
	if !started.IsZero() {
		rec.WallSeconds = time.Since(started).Seconds()
	}

	var d *inspect.RunDiff
	if bl, ok := s.corpus.Baseline(rec.Scenario, rec.ID); !ok || rec.Scenario == "" {
		rec.Verdict = corpus.VerdictBaseline
	} else if baseRun, err := s.corpusRun(bl); err != nil {
		s.logf("job %s corpus: indexed without a verdict, baseline %s unreadable: %v", job.ID(), bl.ID, err)
	} else {
		d = inspect.DiffRuns(baseRun, run, inspect.DiffOptions{})
		rec.Verdict = d.Verdict
		rec.BaselineID = bl.ID
		rec.BaselineDelta = d.BestError.Delta
	}

	if _, err := s.corpus.Add(rec, buf.Bytes()); err != nil {
		s.logf("job %s corpus: index append failed: %v", job.ID(), err)
		return
	}
	s.metrics.corpusIndexed.Inc()
	if rec.Verdict != "" {
		s.metrics.corpusVerdicts.With(rec.Verdict).Inc()
	}
	if d == nil || !d.Regressed() {
		s.logf("job %s indexed into corpus (scenario %s, verdict %s)",
			job.ID(), rec.Scenario, rec.Verdict)
		return
	}
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

// corpusRun loads rec's stored artifact back into a run.
func (s *Server) corpusRun(rec corpus.Record) (*inspect.Run, error) {
	data, err := s.corpus.Artifact(rec)
	if err != nil {
		return nil, err
	}
	return inspect.LoadRun(bytes.NewReader(data))
}

// Corpus exposes the run corpus (nil when persistence is disabled).
func (s *Server) Corpus() *corpus.Corpus { return s.corpus }

var errCorpusDisabled = fmt.Errorf(
	"service: run corpus is disabled (start datamimed with -corpus-dir)")

// corpusListResponse is the GET /v1/corpus body.
type corpusListResponse struct {
	Runs []corpus.Record `json:"runs"`
	// Total counts records in the whole index, before filtering.
	Total int `json:"total"`
	// Malformed counts index lines dropped at open (truncated tail etc).
	Malformed int `json:"malformed,omitempty"`
}

// handleCorpus serves GET /v1/corpus with optional scenario=, target=,
// since=, until= (RFC 3339) and limit= filters.
func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	if s.corpus == nil {
		writeError(w, http.StatusNotFound, errCorpusDisabled)
		return
	}
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
	runs := s.corpus.Select(f)
	if runs == nil {
		runs = []corpus.Record{}
	}
	writeJSON(w, http.StatusOK, corpusListResponse{
		Runs:      runs,
		Total:     s.corpus.Len(),
		Malformed: s.corpus.Malformed(),
	})
}

// handleCorpusTrends serves GET /v1/corpus/{scenario}/trends: the scenario's
// best-error and duration series across runs, with medians.
func (s *Server) handleCorpusTrends(w http.ResponseWriter, r *http.Request) {
	if s.corpus == nil {
		writeError(w, http.StatusNotFound, errCorpusDisabled)
		return
	}
	scenario := r.PathValue("scenario")
	trend := s.corpus.Trend(scenario)
	if trend.Runs == 0 {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("service: no corpus runs for scenario %q", scenario))
		return
	}
	writeJSON(w, http.StatusOK, trend)
}
