package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
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

// indexRun appends a just-succeeded job to the run corpus and runs the
// regression watchdog against the scenario baseline. Called on the job's
// worker goroutine before finish(), so a corpus.regression event appended
// here still reaches SSE subscribers ahead of the terminal frame. Indexing
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
	result := job.result
	job.mu.Unlock()

	// The record is a view of the run's report: every figure below is read
	// off it, none derived a second time.
	report := inspect.NewReport(run, nil, "")
	tl := report.Timeline
	rec := corpus.Record{
		ID:             job.ID(),
		Scenario:       scenarioHash(p.spec),
		Target:         p.target,
		Generator:      p.generator.Name,
		Seed:           p.spec.Seed,
		Backend:        backendName,
		Build:          buildinfo.Read().String(),
		BestIter:       report.Best.Iteration,
		Components:     report.Best.Components,
		Iterations:     p.spec.Iterations,
		Evals:          report.Counts.Evals,
		CacheHits:      report.Counts.CacheHits,
		Skipped:        report.Counts.Skipped,
		TrajectoryHash: corpus.TrajectoryHash(report.Trace),
		BusySeconds:    float64(tl.BusyNS+tl.FleetBusyNS) / 1e9,
		FleetProcesses: len(tl.Fleet),
		RemoteShare:    tl.RemoteShare(),
		ModelHealth:    report.Health.ModelHealth(),
		FinishedAt:     time.Now().UTC(),
	}
	if result != nil {
		rec.BestError = result.BestError
		if len(rec.Components) == 0 {
			rec.Components = result.Components
		}
	}
	if !started.IsZero() {
		rec.WallSeconds = time.Since(started).Seconds()
	}

	var baseline *corpus.Record
	if bl, ok := s.corpus.Baseline(rec.Scenario, rec.ID); ok && rec.Scenario != "" {
		baseline = &bl
	}
	as := corpus.Assess(baseline, rec, s.cfg.CorpusTolerance)
	rec.Verdict = as.Verdict
	rec.BaselineID = as.BaselineID
	rec.BaselineDelta = as.Delta

	if _, err := s.corpus.Add(rec, buf.Bytes()); err != nil {
		s.logf("job %s corpus: index append failed: %v", job.ID(), err)
		return
	}
	s.metrics.corpusIndexed.Inc()
	s.metrics.corpusVerdicts.With(as.Verdict).Inc()
	if baseline != nil {
		s.metrics.corpusBaselineDelta.Set(as.Delta)
	}
	if as.Regressed() {
		s.metrics.corpusRegressions.Inc()
		msg := fmt.Sprintf("corpus regression vs baseline %s: best error %g (%+g)",
			as.BaselineID, rec.BestError, as.Delta)
		job.appendEvent(telemetry.Event{
			Type:   telemetry.TypeCorpusRegression,
			Job:    job.ID(),
			TimeNS: time.Now().UnixNano(),
			Msg:    msg,
			Attrs: map[string]float64{
				telemetry.AttrBestError: rec.BestError,
				"baseline_delta":        as.Delta,
			},
		})
		s.logf("job %s %s", job.ID(), msg)
	} else {
		s.logf("job %s indexed into corpus (scenario %s, verdict %s)",
			job.ID(), rec.Scenario, as.Verdict)
	}
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

// CorpusScenarioSummary is one scenario's rollup in the fleet view: the
// latest run beside the corpus median, so per-run numbers are read in
// context.
type CorpusScenarioSummary struct {
	Scenario          string  `json:"scenario"`
	Target            string  `json:"target,omitempty"`
	Runs              int     `json:"runs"`
	MedianBestError   float64 `json:"median_best_error"`
	MedianWallSeconds float64 `json:"median_wall_seconds"`
	LastBestError     float64 `json:"last_best_error"`
	LastVerdict       string  `json:"last_verdict,omitempty"`
	Regressions       int     `json:"regressions"`
	// MedianCoverage1 and ModelUnhealthy mirror the trend's calibration-drift
	// figures: median 1σ LOO coverage across runs with model health, and how
	// many runs the search-health verdict flagged.
	MedianCoverage1 float64 `json:"median_coverage1,omitempty"`
	ModelUnhealthy  int     `json:"model_unhealthy,omitempty"`
}

// CorpusSummary is the corpus section of the GET /v1/fleet response.
type CorpusSummary struct {
	Runs int `json:"runs"`
	// Indexed/Regressions count this process's watchdog activity (the
	// datamimed_corpus_* counters); Runs counts the whole on-disk index.
	Indexed     int                     `json:"indexed"`
	Regressions int                     `json:"regressions"`
	Scenarios   []CorpusScenarioSummary `json:"scenarios,omitempty"`
}

// corpusSummary builds the fleet view's corpus section (nil when disabled).
func (s *Server) corpusSummary() *CorpusSummary {
	if s.corpus == nil {
		return nil
	}
	out := &CorpusSummary{
		Runs:        s.corpus.Len(),
		Indexed:     int(s.metrics.corpusIndexed.Value()),
		Regressions: int(s.metrics.corpusRegressions.Value()),
	}
	for _, scenario := range s.corpus.Scenarios() {
		tr := s.corpus.Trend(scenario)
		if tr.Runs == 0 {
			continue
		}
		last := tr.Points[len(tr.Points)-1]
		out.Scenarios = append(out.Scenarios, CorpusScenarioSummary{
			Scenario:          scenario,
			Target:            tr.Target,
			Runs:              tr.Runs,
			MedianBestError:   tr.MedianBestError,
			MedianWallSeconds: tr.MedianWallSeconds,
			LastBestError:     last.BestError,
			LastVerdict:       last.Verdict,
			Regressions:       tr.Regressions,
			MedianCoverage1:   tr.MedianCoverage1,
			ModelUnhealthy:    tr.ModelUnhealthy,
		})
	}
	return out
}
