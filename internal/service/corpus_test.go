package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"datamime/internal/core"
	"datamime/internal/corpus"
	"datamime/internal/datagen"
	"datamime/internal/inspect"
	"datamime/internal/telemetry"
)

func newCorpusServer(t *testing.T, checkpointDir, corpusDir string) *Server {
	t.Helper()
	s, err := New(Config{
		Workers:       1,
		CheckpointDir: checkpointDir,
		CorpusDir:     corpusDir,
		Generators:    []datagen.Generator{testGenerator()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func submitAndWait(t *testing.T, svc *Server, spec JobSpec) JobStatus {
	t.Helper()
	job, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job did not finish")
	}
	st := job.status(0)
	if st.State != JobSucceeded {
		t.Fatalf("job %s: %s", st.State, st.Error)
	}
	return st
}

// TestCorpusIndexesIdenticalSeededRuns: two identically-seeded searches on
// one coordinator index as one scenario with bit-identical convergence — the
// second must come back verdict "identical" with the same best error and
// trajectory hash. This is the acceptance invariant the CI fleet-gate
// asserts over HTTP.
func TestCorpusIndexesIdenticalSeededRuns(t *testing.T) {
	corpusDir := t.TempDir()
	svc := newCorpusServer(t, t.TempDir(), corpusDir)
	defer svc.Close()

	spec := testSpec(6, 42)
	first := submitAndWait(t, svc, spec)
	second := submitAndWait(t, svc, spec)

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	var list corpusListResponse
	if code := httpJSON(t, ts, "GET", "/v1/corpus", nil, &list); code != http.StatusOK {
		t.Fatalf("GET /v1/corpus = %d", code)
	}
	if list.Total != 2 || len(list.Runs) != 2 {
		t.Fatalf("corpus lists %d/%d runs, want 2", len(list.Runs), list.Total)
	}
	a, b := list.Runs[0], list.Runs[1]
	if a.ID != first.ID || b.ID != second.ID {
		t.Fatalf("corpus order %s,%s want %s,%s", a.ID, b.ID, first.ID, second.ID)
	}
	if a.Scenario == "" || a.Scenario != b.Scenario {
		t.Fatalf("scenario hashes differ: %q vs %q", a.Scenario, b.Scenario)
	}
	if a.BestError != b.BestError {
		t.Fatalf("best error drifted: %g vs %g", a.BestError, b.BestError)
	}
	if a.TrajectoryHash == "" || a.TrajectoryHash != b.TrajectoryHash {
		t.Fatalf("trajectories not bit-identical: %q vs %q", a.TrajectoryHash, b.TrajectoryHash)
	}
	if a.Verdict != corpus.VerdictBaseline {
		t.Fatalf("first verdict = %q, want baseline", a.Verdict)
	}
	if b.Verdict != inspect.VerdictIdentical {
		t.Fatalf("second verdict = %q, want identical", b.Verdict)
	}
	if b.BaselineID != a.ID {
		t.Fatalf("second run's baseline = %q, want %q", b.BaselineID, a.ID)
	}

	// The filters: limit keeps the most recent runs, and a value that does
	// not parse whole is a 400, not its leading digits.
	var latest corpusListResponse
	if code := httpJSON(t, ts, "GET", "/v1/corpus?limit=1", nil, &latest); code != http.StatusOK ||
		len(latest.Runs) != 1 || latest.Runs[0].ID != second.ID {
		t.Fatalf("GET /v1/corpus?limit=1 = %d %+v, want the second run alone", code, latest.Runs)
	}
	for _, query := range []string{"limit=3x", "limit=-1", "since=yesterday"} {
		if code := httpJSON(t, ts, "GET", "/v1/corpus?"+query, nil, nil); code != http.StatusBadRequest {
			t.Errorf("GET /v1/corpus?%s = %d, want 400", query, code)
		}
	}

	// The trends surface serves the same scenario longitudinally.
	var trend corpus.Trend
	if code := httpJSON(t, ts, "GET", "/v1/corpus/"+a.Scenario+"/trends", nil, &trend); code != http.StatusOK {
		t.Fatalf("GET trends = %d", code)
	}
	if trend.Runs != 2 || trend.Regressions != 0 {
		t.Fatalf("trend = %+v, want 2 runs, 0 regressions", trend)
	}
	if last := trend.Points[len(trend.Points)-1]; last.ID != second.ID || last.Verdict != inspect.VerdictIdentical {
		t.Fatalf("trend's latest run = %s %q, want %s identical", last.ID, last.Verdict, second.ID)
	}
	if code := httpJSON(t, ts, "GET", "/v1/corpus/nope/trends", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown scenario trends = %d, want 404", code)
	}

	// The trends are the corpus figures' one publisher: the fleet view
	// carries none of them.
	var fleet map[string]json.RawMessage
	if code := httpJSON(t, ts, "GET", "/v1/fleet", nil, &fleet); code != http.StatusOK {
		t.Fatalf("GET /v1/fleet = %d", code)
	}
	if _, ok := fleet["corpus"]; ok {
		t.Fatalf("GET /v1/fleet carries a corpus section: %s", fleet["corpus"])
	}
}

// TestCorpusWatchdogFlagsRegression: against a pre-seeded (artificially
// better) baseline, a finished run must trip the watchdog — the regressions
// counter increments, the record is indexed verdict "regressed", and a
// corpus.regression frame reaches the job's SSE stream before done.
func TestCorpusWatchdogFlagsRegression(t *testing.T) {
	corpusDir := t.TempDir()
	spec := testSpec(6, 42)

	// Seed a baseline no run of the spec can match: the spec's own run with
	// every error halved, indexed under the scenario hash the submitted job
	// will compute.
	pre := newTestServer(t, t.TempDir())
	st := submitAndWait(t, pre, spec)
	job, _ := pre.Job(st.ID)
	events := artifactEvents(job)
	pre.Close()
	for _, ev := range events {
		if ev.Type == telemetry.TypeEval && !ev.Skipped {
			ev.Attrs[telemetry.AttrError] /= 2
			ev.Attrs[telemetry.AttrBestError] /= 2
		}
	}
	var artifact bytes.Buffer
	if err := telemetry.WriteJSONL(&artifact, events); err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Open(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	seeded := corpus.Record{
		ID:         "seed-baseline",
		Scenario:   scenarioHash(spec),
		Seed:       spec.Seed,
		BestError:  st.Result.BestError / 2,
		Verdict:    corpus.VerdictBaseline,
		FinishedAt: time.Now().UTC().Add(-time.Hour),
	}
	if _, err := c.Add(seeded, artifact.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	svc := newCorpusServer(t, t.TempDir(), corpusDir)
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var submitted struct {
		ID string `json:"id"`
	}
	if code := httpJSON(t, ts, "POST", "/v1/jobs", spec, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + submitted.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	frames := readSSE(t, resp)
	if len(frames) < 2 {
		t.Fatalf("only %d SSE frames", len(frames))
	}
	if last := frames[len(frames)-1]; last.event != "done" {
		t.Fatalf("stream did not end with done: %+v", last)
	}
	regressionFrames := 0
	for i, fr := range frames {
		if fr.event == telemetry.TypeCorpusRegression {
			regressionFrames++
			if i >= len(frames)-1 {
				t.Fatalf("corpus.regression frame %d not before the done frame", i)
			}
		}
	}
	if regressionFrames != 1 {
		t.Fatalf("saw %d corpus.regression SSE frames, want 1", regressionFrames)
	}

	if got := svc.metrics.corpusRegressions.Value(); got != 1 {
		t.Fatalf("datamimed_corpus_regressions_total = %g, want 1", got)
	}
	rec, ok := svc.Corpus().Find(submitted.ID)
	if !ok {
		t.Fatalf("run %s not indexed", submitted.ID)
	}
	if rec.Verdict != inspect.VerdictRegressed || rec.BaselineID != "seed-baseline" {
		t.Fatalf("record = verdict %q baseline %q, want regressed vs seed-baseline", rec.Verdict, rec.BaselineID)
	}
	if rec.BaselineDelta <= 0 {
		t.Fatalf("baseline delta = %g, want > 0", rec.BaselineDelta)
	}
}

// verdictIter is one iteration of a synthetic run: its error, its per-metric
// attribution, or a skip.
type verdictIter struct {
	err   float64
	comps map[string]float64
	skip  bool
}

// split attributes err to two components, llc taking the given share.
func split(err, llc float64) map[string]float64 {
	return map[string]float64{"cpu_util": err * (1 - llc), "llc_mpki_curve": err * llc}
}

// verdictJob builds a succeeded job of plan p whose event log holds iters.
// The best point's parameters are its error, so runs that reach the same
// best error reach the same point.
func verdictJob(id string, p *plan, iters []verdictIter) *Job {
	j := &Job{id: id, spec: p.spec, plan: p, state: JobSucceeded, done: make(chan struct{})}
	best := math.Inf(1)
	var comps map[string]float64
	for i, it := range iters {
		ev := core.EvalEvent{Record: core.IterationRecord{Iteration: i}, Skipped: it.skip}
		if it.skip {
			ev.Err = "profiling failed"
		} else {
			if it.err < best {
				best, comps = it.err, it.comps
			}
			ev.Record.Params = []float64{it.err}
			ev.Record.Error = it.err
			ev.Record.BestError = best
			ev.Record.Components = it.comps
		}
		j.addEval(ev, int64(i+1))
	}
	j.result = &JobResult{BestParams: []float64{best}, BestError: best, Components: comps}
	return j
}

// TestCorpusVerdictIsDiffRuns: the verdict the corpus watchdog indexes a run
// with is the one `corpus compare` prints for the same two stored artifacts —
// inspect.DiffRuns with default options, baseline first. The last two rows
// are the pairs a best-error-and-trajectory judge gets wrong: a skip that
// costs no best error, and a better best error bought with a worse
// component.
func TestCorpusVerdictIsDiffRuns(t *testing.T) {
	svc := newTestServer(t, t.TempDir())
	defer svc.Close()
	p, err := svc.resolve(testSpec(4, 42))
	if err != nil {
		t.Fatal(err)
	}
	base := []verdictIter{
		{err: 3, comps: split(3, 0.4)},
		{err: 2, comps: split(2, 0.4)},
		{err: 1.5, comps: split(1.5, 0.4)},
		{err: 1.8, comps: split(1.8, 0.4)},
	}
	for _, c := range []struct {
		name string
		cand []verdictIter
		want string
	}{
		{"identical", base, inspect.VerdictIdentical},
		{"same best, different path", []verdictIter{base[0], base[2], base[1], base[3]}, inspect.VerdictChanged},
		{"better best", []verdictIter{base[0], base[1], {err: 1.2, comps: split(1.2, 0.4)}, base[3]}, inspect.VerdictImproved},
		{"worse best", []verdictIter{base[0], base[1], {err: 1.9, comps: split(1.9, 0.4)}, base[3]}, inspect.VerdictRegressed},
		{"skips rose, best equal", []verdictIter{base[0], base[1], base[2], {skip: true}}, inspect.VerdictRegressed},
		{"better best, llc worse", []verdictIter{base[0], base[1], {err: 1.2, comps: split(1.2, 0.75)}, base[3]}, inspect.VerdictRegressed},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cp, err := corpus.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer cp.Close()
			svc.corpus = cp
			defer func() { svc.corpus = nil }()

			baseJob := verdictJob("base", p, base)
			baseRun, events, err := jobRun(baseJob)
			if err != nil {
				t.Fatal(err)
			}
			var artifact bytes.Buffer
			if err := telemetry.WriteJSONL(&artifact, events); err != nil {
				t.Fatal(err)
			}
			if _, err := cp.Add(corpus.Record{
				ID:             "base",
				Scenario:       scenarioHash(p.spec),
				BestError:      baseJob.result.BestError,
				Skipped:        baseRun.Counts().Skipped,
				TrajectoryHash: corpus.TrajectoryHash(baseRun.BestTrace()),
				Verdict:        corpus.VerdictBaseline,
			}, artifact.Bytes()); err != nil {
				t.Fatal(err)
			}

			svc.indexRun(verdictJob("cand", p, c.cand))
			rec, ok := cp.Find("cand")
			if !ok {
				t.Fatal("candidate not indexed")
			}
			stored := func(id string) *inspect.Run {
				r, _ := cp.Find(id)
				data, err := cp.Artifact(r)
				if err != nil {
					t.Fatal(err)
				}
				run, err := inspect.LoadRun(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				return run
			}
			d := inspect.DiffRuns(stored("base"), stored("cand"), inspect.DiffOptions{})
			if d.Verdict != c.want {
				t.Fatalf("compare verdict %q, want %q (%v)", d.Verdict, c.want, d.Differences)
			}
			if rec.Verdict != d.Verdict || rec.BaselineID != "base" || rec.BaselineDelta != d.BestError.Delta {
				t.Fatalf("indexed verdict %q vs %s (delta %g), compare says %q (delta %g)",
					rec.Verdict, rec.BaselineID, rec.BaselineDelta, d.Verdict, d.BestError.Delta)
			}
		})
	}

	// A baseline whose artifact cannot be read leaves nothing to judge by:
	// the run is indexed, with no verdict.
	cp, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	svc.corpus = cp
	defer func() { svc.corpus = nil }()
	if _, err := cp.Add(corpus.Record{ID: "base", Scenario: scenarioHash(p.spec)}, nil); err != nil {
		t.Fatal(err)
	}
	svc.indexRun(verdictJob("cand", p, base))
	if rec, ok := cp.Find("cand"); !ok || rec.Verdict != "" || rec.BaselineID != "" {
		t.Fatalf("run against an unreadable baseline indexed %v as %+v, want no verdict", ok, rec)
	}
}

// TestCorpusRecordsModelHealth: a GP-backed job on a server without
// telemetry indexes with a model-health rollup equal to the one its stored
// artifact yields (the artifact carries the snapshots), and the rollup
// surfaces through the trend points and the fleet scoreboard for
// calibration-drift tracking.
func TestCorpusRecordsModelHealth(t *testing.T) {
	svc := newCorpusServer(t, t.TempDir(), t.TempDir())
	defer svc.Close()

	spec := testSpec(9, 42)
	spec.Optimizer = "" // default bayesopt: the only optimizer with a surrogate
	st := submitAndWait(t, svc, spec)

	rec, ok := svc.Corpus().Find(st.ID)
	if !ok {
		t.Fatalf("run %s not indexed", st.ID)
	}
	if rec.ModelHealth == nil {
		t.Fatal("GP run indexed without a model-health rollup")
	}
	if rec.ModelHealth.Snapshots == 0 || rec.ModelHealth.MeanCoverage1 < 0 || rec.ModelHealth.MeanCoverage1 > 1 {
		t.Fatalf("model health implausible: %+v", rec.ModelHealth)
	}
	stored, err := svc.corpusRun(rec)
	if err != nil {
		t.Fatal(err)
	}
	if mh := inspect.NewSearchHealth(stored).ModelHealth(); !reflect.DeepEqual(mh, rec.ModelHealth) {
		t.Fatalf("record model health %+v, stored artifact's %+v", rec.ModelHealth, mh)
	}

	trend := svc.Corpus().Trend(rec.Scenario)
	if len(trend.Points) != 1 || trend.Points[0].ModelHealth == nil {
		t.Fatalf("trend point lacks model health: %+v", trend.Points)
	}
	if trend.MedianCoverage1 != rec.ModelHealth.MeanCoverage1 {
		t.Fatalf("trend median coverage %g != record coverage %g",
			trend.MedianCoverage1, rec.ModelHealth.MeanCoverage1)
	}

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	var served corpus.Trend
	if code := httpJSON(t, ts, "GET", "/v1/corpus/"+rec.Scenario+"/trends", nil, &served); code != http.StatusOK ||
		served.MedianCoverage1 != trend.MedianCoverage1 || served.Points[0].ModelHealth == nil {
		t.Fatalf("GET trends = %d %+v, missing the calibration figures", code, served)
	}

	// A surrogate-free optimizer indexes with no model health.
	st2 := submitAndWait(t, svc, testSpec(6, 42))
	rec2, ok := svc.Corpus().Find(st2.ID)
	if !ok {
		t.Fatalf("run %s not indexed", st2.ID)
	}
	if rec2.ModelHealth != nil {
		t.Fatalf("random-search run carries model health: %+v", rec2.ModelHealth)
	}
}

// TestCorpusSurvivesRestart: the index written by one coordinator process is
// served intact by the next one pointed at the same directory, and new runs
// append behind the old ones.
func TestCorpusSurvivesRestart(t *testing.T) {
	corpusDir := t.TempDir()
	// Share the checkpoint dir so the restarted process continues the job-N
	// sequence instead of reusing IDs already in the corpus.
	checkpointDir := t.TempDir()
	spec := testSpec(6, 42)

	svc := newCorpusServer(t, checkpointDir, corpusDir)
	first := submitAndWait(t, svc, spec)
	svc.Close()

	svc2 := newCorpusServer(t, checkpointDir, corpusDir)
	defer svc2.Close()
	if got := svc2.Corpus().Len(); got != 1 {
		t.Fatalf("reopened corpus has %d runs, want 1", got)
	}
	second := submitAndWait(t, svc2, spec)

	ts := httptest.NewServer(svc2.Handler())
	defer ts.Close()
	var list corpusListResponse
	if code := httpJSON(t, ts, "GET", "/v1/corpus", nil, &list); code != http.StatusOK {
		t.Fatalf("GET /v1/corpus = %d", code)
	}
	if len(list.Runs) != 2 {
		t.Fatalf("corpus lists %d runs after restart, want 2", len(list.Runs))
	}
	a, b := list.Runs[0], list.Runs[1]
	if a.ID != first.ID || b.ID != second.ID {
		t.Fatalf("corpus order %s,%s want %s,%s", a.ID, b.ID, first.ID, second.ID)
	}
	// Restart must not perturb determinism bookkeeping: the post-restart run
	// is judged identical to the pre-restart baseline.
	if b.Verdict != inspect.VerdictIdentical || b.TrajectoryHash != a.TrajectoryHash {
		t.Fatalf("post-restart verdict %q (traj %q vs %q), want identical",
			b.Verdict, b.TrajectoryHash, a.TrajectoryHash)
	}
}
