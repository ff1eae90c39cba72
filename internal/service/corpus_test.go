package service

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"datamime/internal/core"
	"datamime/internal/corpus"
	"datamime/internal/datagen"
	"datamime/internal/inspect"
	"datamime/internal/telemetry"
)

func newCorpusServer(t *testing.T, checkpointDir string) *Server {
	t.Helper()
	s, err := New(Config{
		Workers:       1,
		CheckpointDir: checkpointDir,
		Generators:    []datagen.Generator{testGenerator()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// corpusRecords returns a copy of the server's corpus.
func corpusRecords(s *Server) []corpus.Record {
	s.recordsMu.Lock()
	defer s.recordsMu.Unlock()
	return slices.Clone(s.records)
}

// findRecord returns the corpus record of job id.
func findRecord(t *testing.T, s *Server, id string) corpus.Record {
	t.Helper()
	recs := corpusRecords(s)
	i := slices.IndexFunc(recs, func(r corpus.Record) bool { return r.ID == id })
	if i < 0 {
		t.Fatalf("run %s not indexed", id)
	}
	return recs[i]
}

// listCorpus reads GET /v1/corpus.
func listCorpus(t *testing.T, s *Server) corpusListResponse {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var list corpusListResponse
	if code := httpJSON(t, ts, "GET", "/v1/corpus", nil, &list); code != http.StatusOK {
		t.Fatalf("GET /v1/corpus = %d", code)
	}
	return list
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
	st := job.status()
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
	svc := newCorpusServer(t, t.TempDir())
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

	// The scenario's trend is corpus.Trends over the listed runs; no route
	// serves it a second time.
	trends := corpus.Trends(list.Runs)
	if len(trends) != 1 || trends[0].Runs != 2 || trends[0].Regressions != 0 {
		t.Fatalf("trends = %+v, want one of 2 runs, 0 regressions", trends)
	}
	if last := trends[0].Points[1]; last.ID != second.ID || last.Verdict != inspect.VerdictIdentical {
		t.Fatalf("trend's latest run = %s %q, want %s identical", last.ID, last.Verdict, second.ID)
	}
	if code := httpJSON(t, ts, "GET", "/v1/corpus/"+a.Scenario+"/trends", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET trends = %d, want 404", code)
	}

	// /v1/corpus is the corpus figures' one publisher: the fleet view
	// carries none of them.
	var fleet map[string]json.RawMessage
	if code := httpJSON(t, ts, "GET", "/v1/fleet", nil, &fleet); code != http.StatusOK {
		t.Fatalf("GET /v1/fleet = %d", code)
	}
	if _, ok := fleet["corpus"]; ok {
		t.Fatalf("GET /v1/fleet carries a corpus section: %s", fleet["corpus"])
	}
}

// TestCorpusConcurrentIndexing: identical jobs finishing at once on two
// workers, while /v1/corpus and /metrics are read, index as one scenario with
// exactly one baseline — the earliest record — and every other run identical
// against it.
func TestCorpusConcurrentIndexing(t *testing.T) {
	svc, err := New(Config{Workers: 2, Generators: []datagen.Generator{testGenerator()}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const n = 4
	var jobs []*Job
	for i := 0; i < n; i++ {
		job, err := svc.Submit(testSpec(6, 42))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		for done := false; !done; {
			select {
			case <-job.Done():
				done = true
			default:
				httpJSON(t, ts, "GET", "/v1/corpus", nil, nil)
				getBody(t, ts, "/metrics")
			}
		}
	}
	runs := listCorpus(t, svc).Runs
	if len(runs) != n {
		t.Fatalf("corpus lists %d runs, want %d", len(runs), n)
	}
	if runs[0].Verdict != corpus.VerdictBaseline {
		t.Errorf("the first run %s is %q, want baseline", runs[0].ID, runs[0].Verdict)
	}
	for _, r := range runs[1:] {
		if r.Verdict != inspect.VerdictIdentical || r.BaselineID != runs[0].ID {
			t.Errorf("run %s is %q vs %q, want identical vs %s", r.ID, r.Verdict, r.BaselineID, runs[0].ID)
		}
	}
}

// TestCorpusWatchdogFlagsRegression: against a pre-seeded (artificially
// better) baseline, a finished run must trip the watchdog — the regressions
// counter increments, the record is indexed verdict "regressed", and one
// corpus.regression line reaches the job's follow stream before it ends.
func TestCorpusWatchdogFlagsRegression(t *testing.T) {
	spec := testSpec(6, 42)

	// Seed a baseline no run of the spec can match: the log of the spec's own
	// run with every error halved, its record line included, restored as job
	// seed-baseline.
	preDir, dir := t.TempDir(), t.TempDir()
	pre := newCorpusServer(t, preDir)
	st := submitAndWait(t, pre, spec)
	pre.Close()
	lines, err := readLog(filepath.Join(preDir, st.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var seeded *corpus.Record
	for _, l := range lines {
		switch {
		case l.Type == telemetry.TypeEval && !l.Skipped:
			l.Attrs[telemetry.AttrError] /= 2
			l.Attrs[telemetry.AttrBestError] /= 2
		case l.Record != nil:
			seeded = l.Record
			seeded.ID = "seed-baseline"
			seeded.BestError /= 2
		}
	}
	if seeded == nil || seeded.Verdict != corpus.VerdictBaseline {
		t.Fatalf("the run's log holds record %+v, want a baseline record line", seeded)
	}
	if err := writeLog(filepath.Join(dir, "seed-baseline.jsonl"), lines); err != nil {
		t.Fatal(err)
	}

	svc := newCorpusServer(t, dir)
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var submitted struct {
		ID string `json:"id"`
	}
	if code := httpJSON(t, ts, "POST", "/v1/jobs", spec, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	regressions := 0
	for _, ev := range followJob(t, ts, submitted.ID) {
		if ev.Type == telemetry.TypeCorpusRegression {
			regressions++
		}
	}
	if regressions != 1 {
		t.Fatalf("saw %d corpus.regression lines before the stream ended, want 1", regressions)
	}

	if got := svc.metrics.corpusRegressions.Value(); got != 1 {
		t.Fatalf("datamimed_corpus_regressions_total = %g, want 1", got)
	}
	rec := findRecord(t, svc, submitted.ID)
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
	for i, it := range iters {
		ev := core.EvalEvent{Record: core.IterationRecord{Iteration: i}, Skipped: it.skip}
		if it.skip {
			ev.Err = "profiling failed"
		} else {
			best = math.Min(best, it.err)
			ev.Record.Params = []float64{it.err}
			ev.Record.Error = it.err
			ev.Record.BestError = best
			ev.Record.Components = it.comps
		}
		tev := ev.TelemetryEvent()
		tev.Job, tev.TimeNS = id, int64(i+1)
		j.add(tev)
	}
	return j
}

// TestCorpusVerdictIsDiffRuns: the verdict the corpus watchdog indexes a run
// with is the one `diff` prints for the two jobs' artifacts —
// inspect.DiffRuns with default options, baseline first. The last three rows
// are the pairs a best-error-and-trajectory judge gets wrong: a skip that
// costs no best error, a better best error bought with a worse component,
// and a non-best iteration that moved without touching the best or the
// running minimum.
func TestCorpusVerdictIsDiffRuns(t *testing.T) {
	svc := newTestServer(t, t.TempDir())
	defer svc.Close()
	p, err := svc.resolve(testSpec(4, 42))
	if err != nil {
		t.Fatal(err)
	}
	// judge indexes cand against a corpus holding base's baseline record,
	// base being a job of the server only when given, and returns cand's
	// record.
	judge := func(base, cand *Job) corpus.Record {
		svc.mu.Lock()
		delete(svc.jobs, "base")
		if base != nil {
			svc.jobs["base"] = base
		}
		svc.mu.Unlock()
		svc.records = []corpus.Record{{ID: "base", Scenario: scenarioHash(p.spec), Verdict: corpus.VerdictBaseline}}
		svc.indexRun(cand)
		return findRecord(t, svc, "cand")
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
		{"non-best iteration moved", []verdictIter{base[0], base[1], base[2], {err: 1.9, comps: split(1.9, 0.4)}}, inspect.VerdictChanged},
	} {
		t.Run(c.name, func(t *testing.T) {
			baseJob, candJob := verdictJob("base", p, base), verdictJob("cand", p, c.cand)
			rec := judge(baseJob, candJob)
			run := func(j *Job) *inspect.Run {
				r, err := inspect.NewRun(artifactEvents(j))
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			d := inspect.DiffRuns(run(baseJob), run(candJob))
			if d.Verdict != c.want {
				t.Fatalf("diff verdict %q, want %q (%v)", d.Verdict, c.want, d.Differences)
			}
			if rec.Verdict != d.Verdict || rec.BaselineID != "base" || rec.BaselineDelta != d.BestError.Delta {
				t.Fatalf("indexed verdict %q vs %s (delta %g), diff says %q (delta %g)",
					rec.Verdict, rec.BaselineID, rec.BaselineDelta, d.Verdict, d.BestError.Delta)
			}
			if candJob.rec == nil || !reflect.DeepEqual(*candJob.rec, rec) {
				t.Fatalf("the job's record line holds %+v, the corpus %+v", candJob.rec, rec)
			}
		})
	}

	// A baseline that is no job here leaves nothing to judge by: the run is
	// indexed, with no verdict.
	if rec := judge(nil, verdictJob("cand", p, base)); rec.Verdict != "" || rec.BaselineID != "" {
		t.Fatalf("run against a missing baseline indexed as %+v, want no verdict", rec)
	}
}

// TestCorpusRecordsModelHealth: a GP-backed job on a server without
// telemetry indexes with a model-health rollup equal to the one its stored
// artifact yields (the artifact carries the snapshots), and the rollup
// surfaces through the listed records' trend for calibration-drift tracking.
func TestCorpusRecordsModelHealth(t *testing.T) {
	svc := newCorpusServer(t, t.TempDir())
	defer svc.Close()

	spec := testSpec(9, 42)
	spec.Optimizer = "" // default bayesopt: the only optimizer with a surrogate
	st := submitAndWait(t, svc, spec)

	rec := findRecord(t, svc, st.ID)
	if rec.ModelHealth == nil {
		t.Fatal("GP run indexed without a model-health rollup")
	}
	if rec.ModelHealth.Snapshots == 0 || rec.ModelHealth.MeanCoverage1 < 0 || rec.ModelHealth.MeanCoverage1 > 1 {
		t.Fatalf("model health implausible: %+v", rec.ModelHealth)
	}
	job, _ := svc.Job(st.ID)
	stored, err := inspect.NewRun(artifactEvents(job))
	if err != nil {
		t.Fatal(err)
	}
	if mh := inspect.NewSearchHealth(stored).ModelHealth(); !reflect.DeepEqual(mh, rec.ModelHealth) {
		t.Fatalf("record model health %+v, the artifact's %+v", rec.ModelHealth, mh)
	}

	trends := corpus.Trends(listCorpus(t, svc).Runs)
	if len(trends) != 1 || len(trends[0].Points) != 1 || trends[0].Points[0].ModelHealth == nil {
		t.Fatalf("trend point lacks model health: %+v", trends)
	}
	if trends[0].MedianCoverage1 != rec.ModelHealth.MeanCoverage1 {
		t.Fatalf("trend median coverage %g != record coverage %g",
			trends[0].MedianCoverage1, rec.ModelHealth.MeanCoverage1)
	}

	// A surrogate-free optimizer indexes with no model health.
	st2 := submitAndWait(t, svc, testSpec(6, 42))
	if rec2 := findRecord(t, svc, st2.ID); rec2.ModelHealth != nil {
		t.Fatalf("random-search run carries model health: %+v", rec2.ModelHealth)
	}
}

// TestCorpusSurvivesRestart: the corpus is the checkpoint directory's job
// logs. A coordinator restarted on it serves the first job's record exactly
// as it was served live, continues the job-N sequence, judges a repeat of the
// spec identical to the pre-restart run, and a further restart keeps both
// records.
func TestCorpusSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(6, 42)

	svc := newCorpusServer(t, dir)
	first := submitAndWait(t, svc, spec)
	live := listCorpus(t, svc).Runs
	svc.Close()

	svc2 := newCorpusServer(t, dir)
	restored := listCorpus(t, svc2).Runs
	if !reflect.DeepEqual(restored, live) {
		t.Fatalf("restored corpus %+v\nlive corpus     %+v", restored, live)
	}
	second := submitAndWait(t, svc2, spec)
	list := listCorpus(t, svc2)
	svc2.Close()
	if len(list.Runs) != 2 || list.Total != 2 {
		t.Fatalf("corpus lists %d/%d runs after restart, want 2", len(list.Runs), list.Total)
	}
	a, b := list.Runs[0], list.Runs[1]
	if a.ID != first.ID || b.ID != second.ID || a.ID == b.ID {
		t.Fatalf("corpus order %s,%s want %s,%s", a.ID, b.ID, first.ID, second.ID)
	}
	// Restart must not perturb determinism bookkeeping: the post-restart run
	// is judged identical to the pre-restart baseline.
	if b.Verdict != inspect.VerdictIdentical || b.BaselineID != a.ID || b.TrajectoryHash != a.TrajectoryHash {
		t.Fatalf("post-restart verdict %q vs %q (traj %q vs %q), want identical vs %s",
			b.Verdict, b.BaselineID, b.TrajectoryHash, a.TrajectoryHash, a.ID)
	}

	svc3 := newCorpusServer(t, dir)
	defer svc3.Close()
	if again := listCorpus(t, svc3).Runs; !reflect.DeepEqual(again, list.Runs) {
		t.Fatalf("a further restart lists %+v\nwant %+v", again, list.Runs)
	}
}
