package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"datamime/internal/datagen"
	"datamime/internal/inspect"
	"datamime/internal/opt"
	"datamime/internal/telemetry"
	"datamime/internal/workload"
)

// newTelemetryServer is newTestServer with per-job telemetry enabled.
func newTelemetryServer(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := New(Config{
		Workers:       1,
		CheckpointDir: dir,
		Generators:    []datagen.Generator{testGenerator()},
		Telemetry:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// followJob reads job id's live stream, GET /v1/jobs/{id}/artifact?follow=1,
// to its end and returns its lines as events, the artifact's header first.
// The stream must end cleanly, which it does only once the job is terminal.
func followJob(t *testing.T, ts *httptest.Server, id string) []telemetry.Event {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/artifact?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow = %d", resp.StatusCode)
	}
	var events []telemetry.Event
	malformed, err := telemetry.ScanJSONL(resp.Body, func(ev telemetry.Event) error {
		events = append(events, ev)
		return nil
	})
	if err != nil || malformed != 0 {
		t.Fatalf("reading the stream: %d malformed lines, %v", malformed, err)
	}
	if len(events) == 0 || events[0].Type != telemetry.TypeLog {
		t.Fatalf("the stream does not open with the artifact's header: %+v", events)
	}
	var st JobStatus
	httpJSON(t, ts, "GET", "/v1/jobs/"+id, nil, &st)
	if !st.State.terminal() {
		t.Fatalf("the stream ended with the job %s", st.State)
	}
	return events
}

// followerStacks returns the stacks of the goroutines serving a job's
// artifact, live streams included.
func followerStacks() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var stacks []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "(*Server).handleArtifact(") {
			stacks = append(stacks, g)
		}
	}
	return stacks
}

func followers() int { return len(followerStacks()) }

// TestSSEStreamsEventsInOrder: a live job's follow stream delivers one eval
// event per iteration in iteration order, interleaves phase spans when
// telemetry is on, and ends cleanly once the job succeeded.
func TestSSEStreamsEventsInOrder(t *testing.T) {
	svc := newTelemetryServer(t, "")
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const iterations = 12
	var submitted struct {
		ID string `json:"id"`
	}
	if code := httpJSON(t, ts, "POST", "/v1/jobs", testSpec(iterations, 21), &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}

	events := followJob(t, ts, submitted.ID)
	var st JobStatus
	if httpJSON(t, ts, "GET", "/v1/jobs/"+submitted.ID, nil, &st); st.State != JobSucceeded {
		t.Fatalf("the stream ended with the job %s, want succeeded", st.State)
	}

	var evalIters []int
	spans := 0
	for _, ev := range events {
		if ev.Job != submitted.ID {
			t.Fatalf("event for job %q on %q's stream", ev.Job, submitted.ID)
		}
		switch ev.Type {
		case telemetry.TypeEval:
			evalIters = append(evalIters, ev.Iter)
			if !ev.Skipped {
				if _, ok := ev.Attrs[telemetry.AttrBestError]; !ok {
					t.Fatalf("eval event without best_error: %+v", ev)
				}
			}
		case telemetry.TypeSpan:
			spans++
		}
	}
	if len(evalIters) != iterations {
		t.Fatalf("streamed %d eval events, want %d (%v)", len(evalIters), iterations, evalIters)
	}
	for i, it := range evalIters {
		if it != i {
			t.Fatalf("eval events out of iteration order: %v", evalIters)
		}
	}
	if spans == 0 {
		t.Fatal("no phase spans streamed with telemetry enabled")
	}
}

// TestFollowIsTheArtifact: the live stream is /artifact's bytes. Followed
// after the job finished, its body equals /artifact's; followed from before
// the job finished (its generator is held until the follower is attached),
// everything after its header line equals the finished job's /artifact after
// its header.
func TestFollowIsTheArtifact(t *testing.T) {
	release := make(chan struct{})
	svc, err := New(Config{Workers: 1, Generators: []datagen.Generator{heldGenerator(nil, release)}, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var submitted struct {
		ID string `json:"id"`
	}
	if code := httpJSON(t, ts, "POST", "/v1/jobs", testSpec(8, 27), &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	path := "/v1/jobs/" + submitted.ID + "/artifact"
	resp, err := ts.Client().Get(ts.URL + path + "?follow=1") // answers once its first lines are flushed
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	live, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	artifact := getBody(t, ts, path)
	if followed := getBody(t, ts, path+"?follow=1"); !bytes.Equal(followed, artifact) {
		t.Fatalf("the finished job's stream differs from its artifact:\n%s\n--- artifact ---\n%s", followed, artifact)
	}
	liveHeader, liveRest, _ := bytes.Cut(live, []byte("\n"))
	_, rest, _ := bytes.Cut(artifact, []byte("\n"))
	if bytes.Contains(liveHeader, []byte("state="+string(JobSucceeded))) {
		t.Fatalf("the job finished before it was followed: %s", liveHeader)
	}
	if !bytes.Equal(liveRest, rest) {
		t.Fatalf("the stream followed from mid-run differs from the artifact after its header:\n%s\n--- artifact ---\n%s", liveRest, rest)
	}
}

// bayesSpec is testSpec with the default (GP) optimizer, so the search emits
// search.diagnostics snapshots once past the initial design.
func bayesSpec(iterations int, seed uint64) JobSpec {
	spec := testSpec(iterations, seed)
	spec.Optimizer = ""
	return spec
}

// TestSSEDiagnosticsFramesPrecedeDone: a GP-backed job's follow stream
// carries search.diagnostics lines, each immediately before the eval line of
// the iteration it names and all before the stream ends at the job's
// terminal state, and the job's artifact carries the matching search-health
// summary.
func TestSSEDiagnosticsFramesPrecedeDone(t *testing.T) {
	svc := newTelemetryServer(t, "")
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var submitted struct {
		ID string `json:"id"`
	}
	if code := httpJSON(t, ts, "POST", "/v1/jobs", bayesSpec(10, 7), &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	events := followJob(t, ts, submitted.ID)
	var diagIdx []int
	for i, ev := range events {
		if ev.Type != telemetry.TypeSearchDiagnostics {
			continue
		}
		diagIdx = append(diagIdx, i)
		if d, err := opt.DiagnosticsFromAttrs(ev.Attrs); err != nil || d.Observations == 0 || d.Candidates == 0 {
			t.Fatalf("diagnostics line incomplete: %+v", ev)
		}
		if i+1 >= len(events) || events[i+1].Type != telemetry.TypeEval || events[i+1].Iter != ev.Iter || events[i+1].Skipped {
			t.Fatalf("diagnostics line for iteration %d not followed by that iteration's eval line", ev.Iter)
		}
	}
	if len(diagIdx) == 0 {
		t.Fatal("no search.diagnostics lines streamed")
	}

	// The artifact carries the same snapshots as the stream.
	run, err := inspect.LoadRun(bytes.NewReader(getBody(t, ts, "/v1/jobs/"+submitted.ID+"/artifact")))
	if err != nil {
		t.Fatal(err)
	}
	health := inspect.NewSearchHealth(run)
	if health == nil {
		t.Fatal("the artifact of a GP job carries no diagnostics")
	}
	if health.Snapshots != len(diagIdx) {
		t.Fatalf("artifact has %d snapshots, stream carried %d lines",
			health.Snapshots, len(diagIdx))
	}
	if len(health.Records) != health.Snapshots {
		t.Fatalf("summary records %d != snapshots %d",
			len(health.Records), health.Snapshots)
	}
}

// TestSSEClientDisconnect: an abandoned follow stream is cleaned up (its
// handler goroutine returns) without affecting the job.
func TestSSEClientDisconnect(t *testing.T) {
	svc := newTelemetryServer(t, "")
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var submitted struct {
		ID string `json:"id"`
	}
	if code := httpJSON(t, ts, "POST", "/v1/jobs", testSpec(500, 8), &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitFor(t, "job to run", func() bool {
		var st JobStatus
		httpJSON(t, ts, "GET", "/v1/jobs/"+submitted.ID, nil, &st)
		return st.State == JobRunning
	})
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+submitted.ID+"/artifact?follow=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower to attach", func() bool { return followers() == 1 })
	cancel()
	resp.Body.Close()
	waitFor(t, "follower cleanup after disconnect", func() bool {
		return followers() == 0 && runtime.NumGoroutine() <= baseline+2
	})

	if code := httpJSON(t, ts, "POST", "/v1/jobs/"+submitted.ID+"/cancel", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel = %d", code)
	}
	waitFor(t, "job to cancel", func() bool {
		var st JobStatus
		httpJSON(t, ts, "GET", "/v1/jobs/"+submitted.ID, nil, &st)
		return st.State == JobCanceled
	})
}

// TestSSESubscriberLifecycle: repeated connect/drop cycles of follow streams
// leak nothing — after the followers disconnect, their handler goroutines
// return and the process goroutine count returns to its pre-follow
// baseline.
func TestSSESubscriberLifecycle(t *testing.T) {
	svc := newTelemetryServer(t, "")
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var submitted struct {
		ID string `json:"id"`
	}
	if code := httpJSON(t, ts, "POST", "/v1/jobs", testSpec(100_000, 5), &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitFor(t, "job to run", func() bool {
		var st JobStatus
		httpJSON(t, ts, "GET", "/v1/jobs/"+submitted.ID, nil, &st)
		return st.State == JobRunning
	})
	// The running job's batch goroutines come and go, so the baseline is a
	// low-water mark the post-drop count only has to dip back to.
	baseline := runtime.NumGoroutine()

	const subscribers = 4
	for round := 0; round < 2; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var resps []*http.Response
		for i := 0; i < subscribers; i++ {
			req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+submitted.ID+"/artifact?follow=1", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resps = append(resps, resp)
		}
		waitFor(t, "followers to attach", func() bool { return followers() == subscribers })
		cancel()
		for _, resp := range resps {
			resp.Body.Close()
		}
		waitFor(t, "follower handlers to return", func() bool { return followers() == 0 })
		waitFor(t, "goroutine count to return to baseline", func() bool {
			return runtime.NumGoroutine() <= baseline+2
		})
	}

	if code := httpJSON(t, ts, "POST", "/v1/jobs/"+submitted.ID+"/cancel", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel = %d", code)
	}
	waitFor(t, "job to cancel", func() bool {
		var st JobStatus
		httpJSON(t, ts, "GET", "/v1/jobs/"+submitted.ID, nil, &st)
		return st.State == JobCanceled
	})
}

// TestArtifactReplaysJobTrace: the acceptance criterion at the service
// level — the exported JSONL artifact replays to the job's best-error
// series: one point per evaluation, non-increasing, ending at the job's best
// error.
func TestArtifactReplaysJobTrace(t *testing.T) {
	svc := newTelemetryServer(t, "")
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var submitted struct {
		ID string `json:"id"`
	}
	if code := httpJSON(t, ts, "POST", "/v1/jobs", testSpec(10, 4), &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	var st JobStatus
	waitFor(t, "job to succeed", func() bool {
		st = JobStatus{}
		httpJSON(t, ts, "GET", "/v1/jobs/"+submitted.ID, nil, &st)
		return st.State == JobSucceeded
	})

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + submitted.ID + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact = %d", resp.StatusCode)
	}
	run, err := inspect.LoadRun(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	replayed := run.BestTrace()
	if len(replayed) != st.Evaluations || replayed[len(replayed)-1] != st.BestError ||
		st.Result == nil || st.Result.BestError != st.BestError {
		t.Fatalf("artifact replay %v does not end at the job's best error %g after %d evaluations (result %+v)",
			replayed, st.BestError, st.Evaluations, st.Result)
	}
	for i := 1; i < len(replayed); i++ {
		if replayed[i] > replayed[i-1] {
			t.Fatalf("artifact best-error series rose at %d: %v", i, replayed)
		}
	}

	// The job status carries wall-clock fields now that it finished.
	if st.Started == nil || st.Finished == nil || st.DurationSeconds <= 0 {
		t.Fatalf("missing timing fields: started=%v finished=%v duration=%g",
			st.Started, st.Finished, st.DurationSeconds)
	}

	// Duration also appears in the listing.
	var listing struct {
		Jobs []JobStatus `json:"jobs"`
	}
	httpJSON(t, ts, "GET", "/v1/jobs", nil, &listing)
	if len(listing.Jobs) != 1 {
		t.Fatalf("listing has %d jobs", len(listing.Jobs))
	}
	if listing.Jobs[0].DurationSeconds <= 0 || listing.Jobs[0].Started == nil {
		t.Fatalf("listing missing timing fields: %+v", listing.Jobs[0])
	}
}

// TestArtifactFromRestoredJob: a finished job restored from disk (whose
// in-memory event log is gone) still exports a replayable artifact, read
// back from its job log: it replays to the live artifact's best-error series.
func TestArtifactFromRestoredJob(t *testing.T) {
	// bestTrace replays job id's /artifact on ts.
	bestTrace := func(ts *httptest.Server, id string) []float64 {
		t.Helper()
		run, err := inspect.LoadRun(bytes.NewReader(getBody(t, ts, "/v1/jobs/"+id+"/artifact")))
		if err != nil {
			t.Fatal(err)
		}
		return run.BestTrace()
	}

	dir := t.TempDir()
	svc := newTelemetryServer(t, dir)
	ts := httptest.NewServer(svc.Handler())

	var submitted struct {
		ID string `json:"id"`
	}
	if code := httpJSON(t, ts, "POST", "/v1/jobs", testSpec(6, 13), &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	var st JobStatus
	waitFor(t, "job to succeed", func() bool {
		st = JobStatus{}
		httpJSON(t, ts, "GET", "/v1/jobs/"+submitted.ID, nil, &st)
		return st.State == JobSucceeded
	})
	want := bestTrace(ts, submitted.ID)
	ts.Close()
	svc.Close()
	if len(want) != st.Evaluations {
		t.Fatalf("live artifact replays %d points for %d evaluations", len(want), st.Evaluations)
	}

	svc2 := newTelemetryServer(t, dir)
	defer svc2.Close()
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	if replayed := bestTrace(ts2, submitted.ID); !reflect.DeepEqual(replayed, want) {
		t.Fatalf("restored artifact diverged:\nreplayed %v\nwant     %v", replayed, want)
	}
}

// flakyGenerator is testGenerator under another name whose listed Benchmark
// calls (1-based, counted per instance) return an unrunnable benchmark, so
// profiling that candidate fails.
func flakyGenerator(breakOn ...int32) datagen.Generator {
	var calls atomic.Int32
	good := testGenerator()
	gen := good
	gen.Name = "kv-flaky"
	gen.Benchmark = func(x []float64) workload.Benchmark {
		n := calls.Add(1)
		for _, b := range breakOn {
			if n == b {
				return workload.Benchmark{Name: "kv-flaky"} // no QPS, no factory
			}
		}
		return good.Benchmark(x)
	}
	return gen
}

// TestRestoredJobKeepsWhatCheckpointKnows: a finished job restored from its
// log reads like the live one. The search skips one iteration (both attempts
// fail) and retries another; after a restart the artifact summarizes to the
// same evaluation and skip counts, best point, trajectory and per-metric
// attribution, the status counters still satisfy hits + misses =
// evaluations, and following it replays the iterations before `done`.
func TestRestoredJobKeepsWhatCheckpointKnows(t *testing.T) {
	dir := t.TempDir()
	newServer := func(gen datagen.Generator) *Server {
		s, err := New(Config{Workers: 1, CheckpointDir: dir, Generators: []datagen.Generator{gen}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// summarize reads a job's artifact and status the way a client would.
	summarize := func(ts *httptest.Server, id string) (inspect.RunSummary, JobStatus) {
		run, err := inspect.LoadRun(bytes.NewReader(getBody(t, ts, "/v1/jobs/"+id+"/artifact")))
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		httpJSON(t, ts, "GET", "/v1/jobs/"+id, nil, &st)
		return inspect.NewRunSummary(inspect.NewReport(run, nil, "")), st
	}

	// Serial, so Benchmark calls map onto iterations: calls 3 and 4 are
	// iteration 2 and its retry (skipped); call 6 is iteration 4's first
	// attempt, whose retry succeeds.
	svc := newServer(flakyGenerator(3, 4, 6))
	ts := httptest.NewServer(svc.Handler())
	spec := profileSpec(testTargetProfile(t), 6, 17)
	spec.Generator = "kv-flaky"
	spec.Parallel = 1
	spec.OnEvalError = "retry-skip"
	var submitted struct {
		ID string `json:"id"`
	}
	if code := httpJSON(t, ts, "POST", "/v1/jobs", spec, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitFor(t, "job to succeed", func() bool {
		var st JobStatus
		httpJSON(t, ts, "GET", "/v1/jobs/"+submitted.ID, nil, &st)
		return st.State == JobSucceeded
	})
	live, liveSt := summarize(ts, submitted.ID)
	ts.Close()
	svc.Close()
	// Retried counts the skipped iteration too: its retry ran, and failed.
	if live.Evals != 5 || live.Skipped != 1 || live.Retried != 2 || len(live.Attribution) == 0 {
		t.Fatalf("live run is not the scenario this test needs: %+v", live)
	}

	svc2 := newServer(flakyGenerator())
	defer svc2.Close()
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	restored, st := summarize(ts2, submitted.ID)

	if restored.Counts != live.Counts {
		t.Errorf("restored counts %+v, live %+v", restored.Counts, live.Counts)
	}
	if restored.BestFound != live.BestFound || restored.BestError != live.BestError ||
		restored.BestIter != live.BestIter || !reflect.DeepEqual(restored.Params, live.Params) {
		t.Errorf("restored best (%v, %g @ %d, %v), live (%v, %g @ %d, %v)",
			restored.BestFound, restored.BestError, restored.BestIter, restored.Params,
			live.BestFound, live.BestError, live.BestIter, live.Params)
	}
	if !reflect.DeepEqual(restored.Trajectory, live.Trajectory) {
		t.Errorf("restored trajectory %v, live %v", restored.Trajectory, live.Trajectory)
	}
	if !reflect.DeepEqual(restored.Attribution, live.Attribution) {
		t.Errorf("restored artifact attributes %d components, live %d:\nrestored %+v\nlive     %+v",
			len(restored.Attribution), len(live.Attribution), restored.Attribution, live.Attribution)
	}
	if st.Evaluations != liveSt.Evaluations || st.Skipped != liveSt.Skipped ||
		st.CacheHits != liveSt.CacheHits || st.CacheHits+st.CacheMisses != st.Evaluations {
		t.Errorf("restored status: evaluations %d, skipped %d, cache hits %d + misses %d; live: %d, %d, %d + %d",
			st.Evaluations, st.Skipped, st.CacheHits, st.CacheMisses,
			liveSt.Evaluations, liveSt.Skipped, liveSt.CacheHits, liveSt.CacheMisses)
	}

	tail, err := inspect.Follow(context.Background(), ts2.Client(), ts2.URL+"/v1/jobs/"+submitted.ID, io.Discard)
	if err != nil || tail.Evals != 6 || tail.FinalState != string(JobSucceeded) {
		t.Errorf("restored job followed: %+v, err %v; want 6 evals then done", tail, err)
	}
}
