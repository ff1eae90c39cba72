package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
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

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	event string
	data  string
}

// readSSE consumes an SSE stream until EOF, returning the frames.
func readSSE(t *testing.T, resp *http.Response) []sseFrame {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "event: "):
			cur.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[len("data: "):]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return frames
}

// TestSSEStreamsEventsInOrder: a live job's /events stream delivers one eval
// event per iteration in iteration order, interleaves phase spans when
// telemetry is on, and closes cleanly with a done frame at completion.
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

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + submitted.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	frames := readSSE(t, resp)
	if len(frames) == 0 {
		t.Fatal("no SSE frames received")
	}
	last := frames[len(frames)-1]
	if last.event != "done" || !strings.Contains(last.data, "succeeded") {
		t.Fatalf("stream did not end with done/succeeded: %+v", last)
	}

	var evalIters []int
	spans := 0
	for _, fr := range frames[:len(frames)-1] {
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(fr.data), &ev); err != nil {
			t.Fatalf("frame %q: %v", fr.data, err)
		}
		if fr.event != ev.Type {
			t.Fatalf("SSE event name %q != payload type %q", fr.event, ev.Type)
		}
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

// bayesSpec is testSpec with the default (GP) optimizer, so the search emits
// search.diagnostics snapshots once past the initial design.
func bayesSpec(iterations int, seed uint64) JobSpec {
	spec := testSpec(iterations, seed)
	spec.Optimizer = ""
	return spec
}

// TestSSEDiagnosticsFramesPrecedeDone: a GP-backed job's event stream carries
// search.diagnostics frames, each immediately before the eval frame of the
// iteration it names and all strictly before the terminal done frame, and
// the job's artifact carries the matching search-health summary.
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
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + submitted.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	frames := readSSE(t, resp)
	doneIdx := -1
	var diagIdx []int
	for i, fr := range frames {
		switch fr.event {
		case "done":
			doneIdx = i
		case telemetry.TypeSearchDiagnostics:
			diagIdx = append(diagIdx, i)
			var ev telemetry.Event
			if err := json.Unmarshal([]byte(fr.data), &ev); err != nil {
				t.Fatalf("diagnostics frame %q: %v", fr.data, err)
			}
			if d := opt.DiagnosticsFromAttrs(ev.Attrs); d.Observations == 0 || d.Candidates == 0 {
				t.Fatalf("diagnostics frame incomplete: %+v", ev)
			}
			var next telemetry.Event
			if i+1 < len(frames) && frames[i+1].event == telemetry.TypeEval {
				_ = json.Unmarshal([]byte(frames[i+1].data), &next)
			}
			if next.Type != telemetry.TypeEval || next.Iter != ev.Iter || next.Skipped {
				t.Fatalf("diagnostics frame for iteration %d not followed by that iteration's eval frame", ev.Iter)
			}
		}
	}
	if len(diagIdx) == 0 {
		t.Fatal("no search.diagnostics frames streamed")
	}
	if doneIdx != len(frames)-1 {
		t.Fatalf("done frame at %d of %d, want last", doneIdx, len(frames))
	}
	for _, i := range diagIdx {
		if i >= doneIdx {
			t.Fatalf("search.diagnostics frame %d not before done frame %d", i, doneIdx)
		}
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
		t.Fatalf("artifact has %d snapshots, stream carried %d frames",
			health.Snapshots, len(diagIdx))
	}
	if len(health.Records) != health.Snapshots {
		t.Fatalf("summary records %d != snapshots %d",
			len(health.Records), health.Snapshots)
	}
}

// TestSSEClientDisconnect: an abandoned subscription is cleaned up (the
// handler returns and the subscriber gauge drops) without affecting the job.
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

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+submitted.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscriber to register", func() bool { return svc.metrics.sseActive.Value() == 1 })
	cancel()
	resp.Body.Close()
	waitFor(t, "subscriber cleanup after disconnect", func() bool { return svc.metrics.sseActive.Value() == 0 })

	if code := httpJSON(t, ts, "POST", "/v1/jobs/"+submitted.ID+"/cancel", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel = %d", code)
	}
	waitFor(t, "job to cancel", func() bool {
		var st JobStatus
		httpJSON(t, ts, "GET", "/v1/jobs/"+submitted.ID, nil, &st)
		return st.State == JobCanceled
	})
}

// TestSSESubscriberLifecycle: repeated connect/drop cycles leak nothing —
// after the subscribers disconnect, both the sse_subscribers gauge and the
// process goroutine count return to their pre-subscription baseline.
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
			req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+submitted.ID+"/events", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resps = append(resps, resp)
		}
		waitFor(t, "subscribers to register", func() bool {
			return svc.metrics.sseActive.Value() == subscribers
		})
		cancel()
		for _, resp := range resps {
			resp.Body.Close()
		}
		waitFor(t, "subscriber gauge to return to baseline", func() bool {
			return svc.metrics.sseActive.Value() == 0
		})
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
// evaluations, and /events replays the iterations before `done`.
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

	tail, err := inspect.Follow(context.Background(), ts2.Client(),
		ts2.URL+"/v1/jobs/"+submitted.ID+"/events", io.Discard)
	if err != nil || !tail.Done || tail.Evals != 6 {
		t.Errorf("restored /events: %+v, err %v; want 6 eval frames then done", tail, err)
	}
}
