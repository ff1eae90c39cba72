package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"datamime/internal/apps/kvstore"
	"datamime/internal/backend"
	"datamime/internal/core"
	"datamime/internal/datagen"
	"datamime/internal/inspect"
	"datamime/internal/opt"
	"datamime/internal/profile"
	"datamime/internal/sim"
	"datamime/internal/stats"
	"datamime/internal/telemetry"
	"datamime/internal/trace"
	"datamime/internal/workload"
)

// testGenerator is a fast memcached-style generator for service tests.
func testGenerator() datagen.Generator {
	space := opt.MustSpace(
		opt.Param{Name: "qps", Lo: 10_000, Hi: 200_000, Log: true},
		opt.Param{Name: "get_ratio", Lo: 0, Hi: 1},
		opt.Param{Name: "val_mu", Lo: 16, Hi: 3_000, Log: true, Integer: true},
	)
	return datagen.Generator{
		Name:  "kv-service-test",
		Space: space,
		Benchmark: func(x []float64) workload.Benchmark {
			cfg := kvstore.Config{
				NumKeys:   4_000,
				KeySize:   stats.Normal{Mu: 24, Sigma: 6, Min: 4},
				ValueSize: stats.Normal{Mu: x[2], Sigma: x[2] / 8, Min: 1},
				GetRatio:  x[1],
			}
			return workload.Benchmark{
				Name: "kv-service-test",
				QPS:  x[0],
				NewServer: func(layout *trace.CodeLayout, seed uint64) workload.Server {
					return kvstore.New(cfg, layout, seed)
				},
			}
		},
	}
}

// heldGenerator is testGenerator holding every benchmark it builds, save
// those pass lets through (none when pass is nil), until release is closed,
// so a test can attach to a job before it evaluates, or stop it at a fixed
// iteration.
func heldGenerator(pass func(x []float64) bool, release <-chan struct{}) datagen.Generator {
	gen := testGenerator()
	benchmark := gen.Benchmark
	gen.Benchmark = func(x []float64) workload.Benchmark {
		if pass == nil || !pass(x) {
			<-release
		}
		return benchmark(x)
	}
	return gen
}

// passPoints lets through the benchmarks of the given iterations' points.
func passPoints(records []core.IterationRecord) func(x []float64) bool {
	return func(x []float64) bool {
		return slices.ContainsFunc(records, func(r core.IterationRecord) bool { return slices.Equal(r.Params, x) })
	}
}

// heldServer is newTestServer over heldGenerator.
func heldServer(t *testing.T, dir string, pass func(x []float64) bool, release <-chan struct{}) *Server {
	t.Helper()
	s, err := New(Config{
		Workers:       1,
		CheckpointDir: dir,
		Generators:    []datagen.Generator{heldGenerator(pass, release)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// closeHeld shuts down a server whose job is held by heldGenerator, as a
// restart does mid-job: release is closed only once the shutdown has
// canceled the job, so the job cannot finish in between.
func closeHeld(svc *Server, release chan<- struct{}) {
	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	<-svc.rootCtx.Done()
	close(release)
	<-closed
}

// testSpec builds a fast metric-objective job spec.
func testSpec(iterations int, seed uint64) JobSpec {
	return JobSpec{
		Generator:   "kv-service-test",
		Iterations:  iterations,
		Parallel:    2,
		Seed:        seed,
		Optimizer:   "random",
		Metric:      "cpu_util",
		MetricValue: 0.15,
		Profiling: &ProfilingSpec{
			WindowCycles:  60_000,
			Windows:       4,
			WarmupWindows: 1,
			SkipCurves:    true,
		},
	}
}

func newTestServer(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := New(Config{
		Workers:       1,
		CheckpointDir: dir,
		Generators:    []datagen.Generator{testGenerator()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// httpJSON performs a request against the test handler and decodes the
// JSON response into out (which may be nil).
func httpJSON(t *testing.T, ts *httptest.Server, method, path string, body interface{}, out interface{}) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s %s response %q: %v", method, path, data, err)
		}
	}
	return resp.StatusCode
}

// getBody GETs path from the test handler and returns the body of its 200
// answer, the way datamime-inspect reads a job's /artifact and /profiles.
func getBody(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, data)
	}
	return data
}

// scanEvents reads artifact bytes back into events.
func scanEvents(t *testing.T, artifact []byte) []telemetry.Event {
	t.Helper()
	var events []telemetry.Event
	if _, err := telemetry.ScanJSONL(bytes.NewReader(artifact), func(ev telemetry.Event) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return events
}

// artifactEvents assembles a job's complete artifact event sequence: the
// header log line followed by every recorded event. A job restored from its
// log holds the events it recorded live, so its artifact is the live one.
func artifactEvents(j *Job) []telemetry.Event {
	j.mu.Lock()
	events, state := j.events, j.state
	j.mu.Unlock()
	return append([]telemetry.Event{artifactHeader(j.ID(), state, len(events))}, events...)
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(3 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestServiceLifecycle covers the submit → poll → cancel → resubmit →
// cache-hit flow over the HTTP API.
func TestServiceLifecycle(t *testing.T) {
	svc := newTestServer(t, "")
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Bad specs are rejected.
	if code := httpJSON(t, ts, "POST", "/v1/jobs", JobSpec{Iterations: 0}, nil); code != http.StatusBadRequest {
		t.Fatalf("zero-iteration spec accepted: %d", code)
	}
	if code := httpJSON(t, ts, "GET", "/v1/jobs/nope", nil, nil); code != http.StatusNotFound {
		t.Fatalf("missing job status = %d", code)
	}

	// A long job we will cancel mid-run.
	var submitted struct {
		ID string `json:"id"`
	}
	if code := httpJSON(t, ts, "POST", "/v1/jobs", testSpec(500, 3), &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	id := submitted.ID

	// Progress grows monotonically while the job runs.
	var st JobStatus
	seen := 0
	waitFor(t, "job to reach 5 iterations", func() bool {
		st = JobStatus{}
		httpJSON(t, ts, "GET", "/v1/jobs/"+id, nil, &st)
		if st.Iterations < seen {
			t.Fatalf("iterations_done went backwards: %d -> %d", seen, st.Iterations)
		}
		seen = st.Iterations
		return st.Iterations >= 5
	})
	if st.State != JobRunning {
		t.Fatalf("mid-run state = %s", st.State)
	}
	if st.Result != nil {
		t.Fatalf("running job has a result: %+v", st.Result)
	}

	// Cancel stops it promptly, well short of its 500-iteration budget.
	if code := httpJSON(t, ts, "POST", "/v1/jobs/"+id+"/cancel", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel = %d", code)
	}
	waitFor(t, "job to reach canceled", func() bool {
		st = JobStatus{}
		httpJSON(t, ts, "GET", "/v1/jobs/"+id, nil, &st)
		return st.State == JobCanceled
	})
	if !strings.Contains(st.Error, "context canceled") {
		t.Fatalf("canceled job error = %q", st.Error)
	}
	if st.Iterations >= 500 {
		t.Fatal("canceled job ran to completion")
	}

	// A fresh job runs to completion...
	httpJSON(t, ts, "POST", "/v1/jobs", testSpec(12, 9), &submitted)
	id = submitted.ID
	waitFor(t, "job to succeed", func() bool {
		st = JobStatus{}
		httpJSON(t, ts, "GET", "/v1/jobs/"+id, nil, &st)
		return st.State == JobSucceeded
	})
	if st.Result == nil {
		t.Fatal("succeeded job has no result")
	}
	first := *st.Result
	if first.Evaluations != 12 || len(first.BestParams) != 3 || first.BestValues == "" {
		t.Fatalf("result = %+v", first)
	}

	// ...and resubmitting it is served from the evaluation cache.
	httpJSON(t, ts, "POST", "/v1/jobs", testSpec(12, 9), &submitted)
	id = submitted.ID
	waitFor(t, "resubmitted job to succeed", func() bool {
		st = JobStatus{}
		httpJSON(t, ts, "GET", "/v1/jobs/"+id, nil, &st)
		return st.State == JobSucceeded
	})
	second := st.Result
	if second == nil {
		t.Fatal("resubmitted job has no result")
	}
	if second.CacheHits != second.Evaluations {
		t.Fatalf("resubmitted job: %d cache hits for %d evaluations", second.CacheHits, second.Evaluations)
	}
	if second.BestError != first.BestError || !reflect.DeepEqual(second.BestParams, first.BestParams) {
		t.Fatalf("cached rerun diverged: %+v vs %+v", second, first)
	}

	// The list endpoint sees all three jobs.
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	httpJSON(t, ts, "GET", "/v1/jobs", nil, &list)
	if len(list.Jobs) != 3 {
		t.Fatalf("list has %d jobs, want 3", len(list.Jobs))
	}

	// Metrics reflect the work done.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`datamimed_jobs{state="succeeded"} 2`,
		`datamimed_jobs{state="canceled"} 1`,
		"datamimed_eval_cache_hits_total",
		"datamimed_workers 1",
		"datamimed_simulated_cycles_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestServiceCheckpointResume kills a server mid-search and verifies the
// restarted server resumes the job from its checkpoint and converges to
// exactly the same result as an uninterrupted run.
func TestServiceCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(30, 17)

	// Reference: the same spec run uninterrupted (no persistence).
	ref, refTrace := runToCompletion(t, newTestServer(t, ""), spec)

	// Interrupted run: close the server once the job has checkpointed a
	// few batches. Its generator builds the first eight iterations' points
	// and holds the rest, so the job stops at iteration 8 whatever the
	// host's speed.
	release := make(chan struct{})
	svcA := heldServer(t, dir, passPoints(refTrace[:8]), release)
	jobA, err := svcA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "checkpoint to accumulate", func() bool {
		st := jobA.status()
		return st.Iterations >= 6 && st.Iterations < 30
	})
	if st := jobA.status(); st.State.terminal() {
		t.Fatalf("job %s before the kill", st.State)
	}
	closeHeld(svcA, release) // simulated kill: running job persists as queued

	// Restart: the job comes back, resumes, and finishes.
	svcB := newTestServer(t, dir)
	defer svcB.Close()
	jobB, ok := svcB.Job(jobA.ID())
	if !ok {
		t.Fatal("restarted server lost the job")
	}
	waitFor(t, "resumed job to finish", func() bool {
		return jobB.status().State.terminal()
	})
	got := jobB.status()
	if got.State != JobSucceeded {
		t.Fatalf("resumed job %s: %s", got.State, got.Error)
	}
	if got.Result.BestError != ref.Result.BestError ||
		!reflect.DeepEqual(got.Result.BestParams, ref.Result.BestParams) {
		t.Fatalf("resumed result diverged:\nresumed %+v\nref     %+v", got.Result, ref.Result)
	}
	if trace := records(t, jobB); len(trace) != 30 || !reflect.DeepEqual(trace, refTrace) {
		t.Fatalf("resumed trace diverged (%d records)", len(trace))
	}
	// The resumed run replayed its prefix rather than re-simulating it:
	// only the iterations after the logged ones cost this server fresh
	// simulated cycles.
	if resumed := svcB.metrics.cyclesTotal.Value(); resumed >= ref.SimCycles {
		t.Fatalf("resume re-simulated everything: %g vs %g cycles", resumed, ref.SimCycles)
	}

	// A third start has nothing to resume but still reports the job.
	svcB.Close()
	svcC := newTestServer(t, dir)
	defer svcC.Close()
	jobC, ok := svcC.Job(jobA.ID())
	if !ok {
		t.Fatal("third start lost the job")
	}
	st := jobC.status()
	if st.State != JobSucceeded || st.Result == nil || st.Evaluations != 30 {
		t.Fatalf("restored finished job: %+v", st)
	}
}

// runToCompletion submits spec and waits for the result, returning the
// job's status and iteration records.
func runToCompletion(t *testing.T, svc *Server, spec JobSpec) (JobStatus, []core.IterationRecord) {
	t.Helper()
	defer svc.Close()
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
	return st, records(t, job)
}

// records reads a job's iteration records off its event log, which /artifact
// serves: one per evaluation, skips aside.
func records(t *testing.T, j *Job) []core.IterationRecord {
	t.Helper()
	run, err := inspect.NewRun(artifactEvents(j))
	if err != nil {
		t.Fatal(err)
	}
	var recs []core.IterationRecord
	for _, ev := range run.Evals {
		if !ev.Skipped {
			recs = append(recs, ev.Record)
		}
	}
	return recs
}

// TestCacheLRU exercises eviction and stats.
func TestCacheLRU(t *testing.T) {
	c := backend.NewLRU(2)
	prof := &profile.Profile{Benchmark: "dummy"}
	c.Put("a", prof)
	c.Put("b", prof)
	if _, ok := c.Get("a"); !ok { // touches a: b is now LRU
		t.Fatal("a missing")
	}
	c.Put("c", prof) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted out of LRU order")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 2 {
		t.Fatalf("stats = %d hits, %d misses, %d entries", st.Hits, st.Misses, st.Entries)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

// TestSpecValidation covers the shape errors resolve refuses (the names it
// refuses are TestSubmitRefusesWhatCannotRun's).
func TestSpecValidation(t *testing.T) {
	s := newTestServer(t, "")
	defer s.Close()
	const g = "kv-service-test"
	bad := []JobSpec{
		{},
		{Iterations: 5}, // no objective
		{Iterations: 5, Metric: "ipc", Workload: "mem-fb"},                   // two objectives
		{Iterations: 5, Metric: "ipc"},                                       // no generator
		{Iterations: 5, Metric: "ipc", Generator: g, OnEvalError: "explode"}, // bad policy
		{Iterations: 5, Metric: "ipc", Generator: g, Optimizer: "gradient"},  // bad optimizer
	}
	for i, spec := range bad {
		if _, err := s.resolve(spec); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
	good := testSpec(5, 1)
	if _, err := s.resolve(good); err != nil {
		t.Fatal(err)
	}
}

// TestPlanProfilerUsesProcessBudget: every plan's profiler, which profiles
// the job's hidden target and its in-process candidates, draws on the
// server's one budget of GOMAXPROCS profiles, the one its dispatch fallback
// evaluates under.
func TestPlanProfilerUsesProcessBudget(t *testing.T) {
	s := &Server{local: backend.NewLocalBackend(testGenerator())}
	for _, spec := range []JobSpec{testSpec(5, 1), {Workload: "mem-fb", Iterations: 5}} {
		p, err := s.resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		budget := s.local.Profiler(sim.Broadwell()).Budget
		if p.profiler.Budget != budget || budget.Cap() != runtime.GOMAXPROCS(0) {
			t.Fatalf("plan profiler: budget %p of %d; want the server's budget %p of %d",
				p.profiler.Budget, p.profiler.Budget.Cap(), budget, runtime.GOMAXPROCS(0))
		}
	}
}

// TestRoutesAreVersioned: one route scheme — every pattern the server
// registers lives under /v1, the two operational probes aside — and the
// table holds the 12 routes the API documents. A job's report, diagnostics
// and trace are the client's renderings of /artifact, not routes.
func TestRoutesAreVersioned(t *testing.T) {
	svc := newTestServer(t, "")
	defer svc.Close()
	if n := len(svc.routes()); n != 12 {
		t.Errorf("%d routes, want 12", n)
	}
	for pattern := range svc.routes() {
		_, path, ok := strings.Cut(pattern, " ")
		if !ok {
			t.Errorf("pattern %q names no method", pattern)
		}
		if path != "/metrics" && path != "/healthz" && !strings.HasPrefix(path, "/v1/") {
			t.Errorf("route %q is outside /v1", pattern)
		}
	}
}
