package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"datamime/internal/corpus"
	"datamime/internal/datagen"
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
	if b.Verdict != corpus.VerdictIdentical {
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
	if code := httpJSON(t, ts, "GET", "/v1/corpus/nope/trends", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown scenario trends = %d, want 404", code)
	}

	// The fleet view carries the corpus rollup.
	var fleet FleetStatus
	if code := httpJSON(t, ts, "GET", "/v1/fleet", nil, &fleet); code != http.StatusOK {
		t.Fatalf("GET /v1/fleet = %d", code)
	}
	if fleet.Corpus == nil || fleet.Corpus.Runs != 2 || fleet.Corpus.Indexed != 2 {
		t.Fatalf("fleet corpus rollup = %+v", fleet.Corpus)
	}
	if len(fleet.Corpus.Scenarios) != 1 || fleet.Corpus.Scenarios[0].LastVerdict != corpus.VerdictIdentical {
		t.Fatalf("fleet corpus scenarios = %+v", fleet.Corpus.Scenarios)
	}
}

// TestCorpusWatchdogFlagsRegression: against a pre-seeded (artificially
// better) baseline, a finished run must trip the watchdog — the regressions
// counter increments, the record is indexed verdict "regressed", and a
// corpus.regression frame reaches the job's SSE stream before done.
func TestCorpusWatchdogFlagsRegression(t *testing.T) {
	corpusDir := t.TempDir()
	spec := testSpec(6, 42)

	// Seed a baseline no real run can beat: best error -1 with the same
	// scenario hash the submitted job will compute.
	c, err := corpus.Open(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	seeded := corpus.Record{
		ID:         "seed-baseline",
		Scenario:   scenarioHash(spec),
		Seed:       spec.Seed,
		BestError:  -1,
		Verdict:    corpus.VerdictBaseline,
		FinishedAt: time.Now().UTC().Add(-time.Hour),
	}
	if _, err := c.Add(seeded, []byte("{}\n")); err != nil {
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
	if rec.Verdict != corpus.VerdictRegressed || rec.BaselineID != "seed-baseline" {
		t.Fatalf("record = verdict %q baseline %q, want regressed vs seed-baseline", rec.Verdict, rec.BaselineID)
	}
	if rec.BaselineDelta <= 0 {
		t.Fatalf("baseline delta = %g, want > 0", rec.BaselineDelta)
	}
}

// TestCorpusRecordsModelHealth: a GP-backed job indexes with a model-health
// rollup (built from trace-attached diagnostics — no telemetry needed), and
// the rollup surfaces through the trend points and the fleet scoreboard for
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

	trend := svc.Corpus().Trend(rec.Scenario)
	if len(trend.Points) != 1 || trend.Points[0].ModelHealth == nil {
		t.Fatalf("trend point lacks model health: %+v", trend.Points)
	}
	if trend.MedianCoverage1 != rec.ModelHealth.MeanCoverage1 {
		t.Fatalf("trend median coverage %g != record coverage %g",
			trend.MedianCoverage1, rec.ModelHealth.MeanCoverage1)
	}

	sum := svc.corpusSummary()
	if len(sum.Scenarios) != 1 || sum.Scenarios[0].MedianCoverage1 != trend.MedianCoverage1 {
		t.Fatalf("scoreboard rollup missing calibration figures: %+v", sum.Scenarios)
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
	if b.Verdict != corpus.VerdictIdentical || b.TrajectoryHash != a.TrajectoryHash {
		t.Fatalf("post-restart verdict %q (traj %q vs %q), want identical",
			b.Verdict, b.TrajectoryHash, a.TrajectoryHash)
	}
}
