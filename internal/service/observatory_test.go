package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"datamime/internal/telemetry"
)

// TestObservatoryMetricsFamilies: the runtime-observatory families — sim
// runs, per-worker busy time, budget waits, GP factor diagnostics, cache
// misses — appear on /metrics once a telemetry-enabled job runs.
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
		"datamimed_eval_cache_misses_total",
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

// TestJobTraceEndpointTelemetry: the trace written from a telemetry-enabled
// job's GET /v1/jobs/{id}/artifact is a structurally valid Perfetto trace
// with worker tracks, and it draws every event it was given.
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

	var trace bytes.Buffer
	if err := telemetry.WriteTrace(&trace, scanEvents(t, getBody(t, ts, "/v1/jobs/"+submitted.ID+"/artifact"))); err != nil {
		t.Fatal(err)
	}
	st, err := telemetry.ValidateTrace(&trace)
	if err != nil {
		t.Fatal(err)
	}
	if st.Spans == 0 || st.Instants == 0 {
		t.Errorf("trace carries no timeline content: %+v", st)
	}
	if st.WorkerTracks == 0 {
		t.Errorf("trace has no worker tracks: %+v", st)
	}
	if st.DroppedUnstamped != 0 {
		t.Errorf("a live job's trace dropped %d unstamped events", st.DroppedUnstamped)
	}
}

// runningJob registers a hand-built running job whose log holds n eval
// events, each carrying msg.
func runningJob(t *testing.T, svc *Server, id string, n int, msg func(i int) string) *Job {
	t.Helper()
	job := &Job{id: id, state: JobRunning, done: make(chan struct{}), created: time.Now()}
	svc.mu.Lock()
	svc.jobs[job.id] = job
	svc.order = append(svc.order, job.id)
	svc.mu.Unlock()
	addEvals(t, svc, job, 0, n, msg)
	return job
}

// addEvals appends the eval events of iterations from..to-1 to job's log, and
// fails if that blocked: the search side never waits on a follower.
func addEvals(t *testing.T, svc *Server, job *Job, from, to int, msg func(i int) string) {
	t.Helper()
	start := time.Now()
	for i := from; i < to; i++ {
		svc.addEvent(job, telemetry.Event{Type: telemetry.TypeEval, Iter: i, Msg: msg(i),
			TimeNS: time.Now().UnixNano(),
			Attrs:  map[string]float64{telemetry.AttrError: 0.5, telemetry.AttrBestError: 0.5}})
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("appending %d events took %v: addEvent blocked on a follower", to-from, elapsed)
	}
}

// TestFollowSlowOrLateReaderGetsEverything: a follower that attaches after
// 150 events, and one that reads slowly while 150 more are appended, each
// get every line in order, none dropped, and appending never blocks on them.
func TestFollowSlowOrLateReaderGetsEverything(t *testing.T) {
	svc := newTestServer(t, "")
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const half = 150
	noMsg := func(int) string { return "" }
	job := runningJob(t, svc, "job-late", half, noMsg)

	read := func(slow bool) ([]int, error) {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/job-late/artifact?follow=1")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var iters []int
		_, err = telemetry.ScanJSONL(resp.Body, func(ev telemetry.Event) error {
			if ev.Type == telemetry.TypeEval {
				iters = append(iters, ev.Iter)
			}
			if slow {
				time.Sleep(time.Millisecond)
			}
			return nil
		})
		return iters, err
	}
	type result struct {
		iters []int
		err   error
	}
	late, slow := make(chan result, 1), make(chan result, 1)
	go func() { iters, err := read(false); late <- result{iters, err} }()
	go func() { iters, err := read(true); slow <- result{iters, err} }()
	waitFor(t, "followers to attach", func() bool { return followers() == 2 })
	addEvals(t, svc, job, half, 2*half, noMsg)
	svc.finish(job, JobSucceeded, "")

	for name, ch := range map[string]chan result{"late": late, "slow": slow} {
		r := <-ch
		if r.err != nil {
			t.Fatalf("%s follower: %v", name, r.err)
		}
		if len(r.iters) != 2*half {
			t.Fatalf("%s follower got %d of %d evals", name, len(r.iters), 2*half)
		}
		for i, it := range r.iters {
			if it != i {
				t.Fatalf("%s follower got iteration %d at line %d", name, it, i)
			}
		}
	}
}

// TestFollowStalledReadersHoldNoCopy: followers that never read hold no copy
// of the log. With a 10 MB log (8192 events of 1 KB) and 8 followers stalled
// on full sockets, the post-GC heap stays within 1 MB of the no-follower
// baseline — a copy of the log's events alone is 152 B each, 1.2 MB per
// follower — and appending to the log does not block on them.
func TestFollowStalledReadersHoldNoCopy(t *testing.T) {
	svc := newTestServer(t, "")
	defer svc.Close()
	ts := httptest.NewUnstartedServer(svc.Handler())
	ts.Listener = smallSendBuffers{ts.Listener}
	ts.Start()
	defer ts.Close()

	const events, readers, bound = 8192, 8, 1 << 20
	kb := func(i int) string { return strings.Repeat(string(rune('a'+i%26)), 1024) }
	job := runningJob(t, svc, "job-stalled", events, kb)
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	baseline := heap()

	// A raw connection with a small receive buffer, never read, stalls its
	// follower's writes once both socket buffers fill.
	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < readers; i++ {
		c, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		if err := c.(*net.TCPConn).SetReadBuffer(4096); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write([]byte("GET /v1/jobs/job-stalled/artifact?follow=1 HTTP/1.1\r\nHost: test\r\n\r\n")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "followers to stall writing", func() bool { return stalledFollowers() == readers })
	grown := int64(heap()) - int64(baseline)
	if grown > bound {
		t.Errorf("%d stalled followers grew the heap by %d B, want at most %d", readers, grown, bound)
	}
	t.Logf("%d stalled followers grew the heap by %d B over %d B", readers, grown, baseline)
	addEvals(t, svc, job, events, events+100, kb)

	for _, c := range conns {
		c.Close()
	}
	svc.finish(job, JobSucceeded, "")
	waitFor(t, "follower handlers to return", func() bool { return followers() == 0 })
}

// smallSendBuffers pins the send buffer of each connection it accepts, so a
// follower whose client never reads stalls within a few KB on any host.
type smallSendBuffers struct{ net.Listener }

func (l smallSendBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		err = errors.Join(err, tc.SetWriteBuffer(4096))
	}
	return c, err
}

// stalledFollowers counts the goroutines serving a job's artifact that are
// blocked writing it to their connection.
func stalledFollowers() int {
	stalled := 0
	for _, g := range followerStacks() {
		if strings.Contains(g, "poll.(*FD).Write(") {
			stalled++
		}
	}
	return stalled
}
