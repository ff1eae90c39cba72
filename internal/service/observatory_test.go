package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"datamime/internal/datagen"
	"datamime/internal/telemetry"
)

// TestObservatoryMetricsFamilies: the runtime-observatory families — sim
// runs, per-worker busy time, budget waits, GP factor diagnostics, cache
// misses, SSE drops — appear on /metrics once a telemetry-enabled job runs.
func TestObservatoryMetricsFamilies(t *testing.T) {
	svc := newTelemetryServer(t, "")
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var submitted struct {
		ID string `json:"id"`
	}
	if code := httpJSON(t, ts, "POST", "/v1/jobs", testSpec(6, 31), &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitFor(t, "job to finish", func() bool {
		var st JobStatus
		httpJSON(t, ts, "GET", "/v1/jobs/"+submitted.ID, nil, &st)
		return st.State.terminal()
	})

	samples := scrape(t, ts)
	byName := map[string][]metricSample{}
	for _, s := range samples {
		byName[s.name] = append(byName[s.name], s)
	}
	for _, want := range []string{
		"datamimed_sim_runs_total",
		"datamimed_profile_worker_busy_seconds_total",
		"datamimed_budget_wait_seconds_total",
		"datamimed_gp_cholesky_appends_total",
		"datamimed_gp_cholesky_rebuilds_total",
		"datamimed_gp_jitter_level_max",
		"datamimed_eval_cache_misses_total",
		"datamimed_sse_dropped_total",
	} {
		if len(byName[want]) == 0 {
			t.Errorf("missing metric family %s", want)
		}
	}
	if v := byName["datamimed_sim_runs_total"]; len(v) > 0 && v[0].value == 0 {
		t.Error("datamimed_sim_runs_total = 0 after a telemetry job ran")
	}
	busy := byName["datamimed_profile_worker_busy_seconds_total"]
	if len(busy) == 0 {
		t.Error("no per-worker busy series recorded")
	}
	for _, s := range busy {
		if s.labels["worker"] == "" {
			t.Error("per-worker busy sample without a worker label")
		}
		if s.value < 0 {
			t.Errorf("negative worker busy seconds %g", s.value)
		}
	}
	if v := byName["datamimed_eval_cache_misses_total"]; len(v) > 0 && v[0].value == 0 {
		t.Error("datamimed_eval_cache_misses_total = 0 after fresh evaluations")
	}
}

// TestJobStatusCacheMissMetrics: job status JSON carries cache_misses, and
// hits + misses account for every non-skipped evaluation.
func TestJobStatusCacheMissMetrics(t *testing.T) {
	svc := newTestServer(t, "")
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var submitted struct {
		ID string `json:"id"`
	}
	if code := httpJSON(t, ts, "POST", "/v1/jobs", testSpec(6, 5), &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	var st JobStatus
	waitFor(t, "job to finish", func() bool {
		httpJSON(t, ts, "GET", "/v1/jobs/"+submitted.ID, nil, &st)
		return st.State == JobSucceeded
	})
	if st.Evaluations == 0 {
		t.Fatal("job finished with zero evaluations")
	}
	if st.CacheHits+st.CacheMisses != st.Evaluations {
		t.Errorf("cache hits %d + misses %d != evaluations %d",
			st.CacheHits, st.CacheMisses, st.Evaluations)
	}
	if st.CacheMisses == 0 {
		t.Error("cache_misses = 0: first-time evaluations must miss")
	}

	// The raw JSON must expose the field under its documented name.
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + submitted.ID)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := raw["cache_misses"]; !ok {
		t.Error("status JSON has no cache_misses key")
	}
}

// TestJobTraceEndpointTelemetry: GET /v1/jobs/{id}/trace exports a structurally
// valid Perfetto trace with worker tracks for a telemetry-enabled job.
func TestJobTraceEndpointTelemetry(t *testing.T) {
	svc := newTelemetryServer(t, "")
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var submitted struct {
		ID string `json:"id"`
	}
	if code := httpJSON(t, ts, "POST", "/v1/jobs", testSpec(4, 11), &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitFor(t, "job to finish", func() bool {
		var st JobStatus
		httpJSON(t, ts, "GET", "/v1/jobs/"+submitted.ID, nil, &st)
		return st.State.terminal()
	})

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + submitted.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	st, err := telemetry.ValidateTrace(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if st.Spans == 0 || st.Instants == 0 {
		t.Errorf("trace carries no timeline content: %+v", st)
	}
	if st.WorkerTracks == 0 {
		t.Errorf("trace has no worker tracks: %+v", st)
	}

	if code := httpJSON(t, ts, "GET", "/v1/jobs/no-such/trace", nil, nil); code != http.StatusNotFound {
		t.Errorf("missing-job trace = %d, want 404", code)
	}
}

// TestSSESlowConsumerBacklogDrop: a subscriber whose pending batch exceeds
// SSEMaxBacklog loses the oldest events — announced via one "dropped" frame
// and counted on the drop counter — and the search-side appendEvent path
// never blocks on it.
func TestSSESlowConsumerBacklogDrop(t *testing.T) {
	svc, err := New(Config{
		Workers:       1,
		Generators:    []datagen.Generator{testGenerator()},
		SSEMaxBacklog: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Hand-build a running job whose event log already exceeds the backlog
	// cap before the subscriber connects: its first batch must drop.
	job := &Job{id: "job-slow", state: JobRunning, done: make(chan struct{}), created: time.Now()}
	svc.mu.Lock()
	svc.jobs[job.id] = job
	svc.order = append(svc.order, job.id)
	svc.mu.Unlock()

	const total = 100
	start := time.Now()
	for i := 0; i < total; i++ {
		job.appendEvent(telemetry.Event{Type: telemetry.TypeEval, Iter: i,
			TimeNS: time.Now().UnixNano(),
			Attrs:  map[string]float64{telemetry.AttrError: 0.5, telemetry.AttrBestError: 0.5}})
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("appendEvent blocked for %v with no subscriber draining", elapsed)
	}

	respCh := make(chan *http.Response, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/job-slow/events")
		if err != nil {
			t.Error(err)
			close(respCh)
			return
		}
		respCh <- resp
	}()
	resp, ok := <-respCh
	if !ok {
		t.FailNow()
	}
	svc.finish(job, JobSucceeded, "")

	frames := readSSE(t, resp)
	var droppedFrames, evalFrames int
	var droppedCount float64
	for _, fr := range frames {
		switch fr.event {
		case "dropped":
			droppedFrames++
			var d struct {
				Dropped float64 `json:"dropped"`
			}
			if err := json.Unmarshal([]byte(fr.data), &d); err != nil {
				t.Fatalf("dropped frame data %q: %v", fr.data, err)
			}
			droppedCount += d.Dropped
		case "eval":
			evalFrames++
		}
	}
	if droppedFrames == 0 {
		t.Fatal("no dropped frame despite backlog over the cap")
	}
	if droppedCount == 0 || evalFrames == total {
		t.Errorf("dropped %g events, delivered %d/%d evals — backlog cap had no effect",
			droppedCount, evalFrames, total)
	}
	if float64(evalFrames)+droppedCount != total {
		t.Errorf("delivered %d + dropped %g != appended %d", evalFrames, droppedCount, total)
	}
	if got := svc.metrics.sseDropped.Value(); got != droppedCount {
		t.Errorf("sseDropped counter %g != announced drops %g", got, droppedCount)
	}
}

// TestSSEBacklogDefaultKeepsEverything: with the default (large) backlog
// cap, a subscriber joining after a modest event log still receives the
// full history — the drop path stays dormant.
func TestSSEBacklogDefaultKeepsEverything(t *testing.T) {
	svc := newTestServer(t, "")
	defer svc.Close()
	if svc.cfg.SSEMaxBacklog != 4096 {
		t.Fatalf("default SSEMaxBacklog = %d, want 4096", svc.cfg.SSEMaxBacklog)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var submitted struct {
		ID string `json:"id"`
	}
	if code := httpJSON(t, ts, "POST", "/v1/jobs", testSpec(5, 13), &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitFor(t, "job to finish", func() bool {
		var st JobStatus
		httpJSON(t, ts, "GET", "/v1/jobs/"+submitted.ID, nil, &st)
		return st.State == JobSucceeded
	})
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + submitted.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	frames := readSSE(t, resp)
	evals := 0
	for _, fr := range frames {
		if fr.event == "dropped" {
			t.Error("dropped frame under the default backlog cap")
		}
		if fr.event == "eval" {
			evals++
		}
	}
	if evals != 5 {
		t.Errorf("replayed %d eval frames, want 5", evals)
	}
	if !strings.Contains(frames[len(frames)-1].data, "succeeded") {
		t.Errorf("final frame %+v does not carry the terminal state", frames[len(frames)-1])
	}
}
