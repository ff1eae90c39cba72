package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"datamime/internal/backend"
	"datamime/internal/datagen"
	"datamime/internal/telemetry"
)

// newFleetWorker starts an in-process datamime-worker over httptest,
// registered with the test generator.
func newFleetWorker(t *testing.T, name string) (*backend.Worker, *httptest.Server) {
	t.Helper()
	w := backend.NewWorker(backend.WorkerConfig{
		Name:           name,
		Capacity:       1,
		ProfileWorkers: 1,
		Generators:     []datagen.Generator{testGenerator()},
	})
	ts := httptest.NewServer(w.Handler())
	t.Cleanup(ts.Close)
	return w, ts
}

// newFleetServer builds a service with statically registered workers.
func newFleetServer(t *testing.T, urls []string) *Server {
	t.Helper()
	s, err := New(Config{
		Workers:    1,
		Generators: []datagen.Generator{testGenerator()},
		WorkerURLs: urls,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServiceFleetBitIdentity is the subsystem's acceptance test: the same
// seeded job run against a 2-worker fleet and run purely in-process must
// produce bit-identical results and iteration traces.
func TestServiceFleetBitIdentity(t *testing.T) {
	spec := testSpec(12, 21)
	spec.Backend = "local"
	ref, refTrace := runToCompletion(t, newTestServer(t, ""), spec)

	_, ts1 := newFleetWorker(t, "fleet-a")
	_, ts2 := newFleetWorker(t, "fleet-b")
	svc := newFleetServer(t, []string{ts1.URL, ts2.URL})
	defer svc.Close()

	remoteSpec := testSpec(12, 21)
	remoteSpec.Backend = "remote"
	job, err := svc.Submit(remoteSpec)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	got := job.status()
	if got.State != JobSucceeded {
		t.Fatalf("fleet job %s: %s", got.State, got.Error)
	}
	if got.Backend != "dispatch" {
		t.Fatalf("job backend = %q, want dispatch", got.Backend)
	}

	// Bit-identity: result and every iteration record /artifact serves.
	if got.Result.BestError != ref.Result.BestError ||
		!reflect.DeepEqual(got.Result.BestParams, ref.Result.BestParams) ||
		got.Result.BestValues != ref.Result.BestValues {
		t.Fatalf("fleet result diverged:\nfleet %+v\nlocal %+v", got.Result, ref.Result)
	}
	if !reflect.DeepEqual(records(t, job), refTrace) {
		t.Fatal("fleet iteration trace diverged from the local run")
	}
	if got.Result.CacheHits != ref.Result.CacheHits {
		t.Fatalf("cache hits diverged: fleet %d, local %d", got.Result.CacheHits, ref.Result.CacheHits)
	}

	// The fleet actually served the evaluations.
	served := workerEvals(t, ts1) + workerEvals(t, ts2)
	if served == 0 {
		t.Fatal("no evaluation reached the fleet")
	}
	c := svc.Dispatcher().Counters()
	if c.RemoteEvals == 0 || c.LocalEvals != 0 {
		t.Fatalf("dispatch counters = %+v, want all-remote", c)
	}
}

// workerEvals reads the evaluations a worker counts as served off its own
// /metrics (datamime_worker_evaluations_total).
func workerEvals(t *testing.T, ts *httptest.Server) float64 {
	t.Helper()
	for _, s := range scrape(t, ts) {
		if s.name == "datamime_worker_evaluations_total" {
			return s.value
		}
	}
	t.Fatal("worker /metrics has no datamime_worker_evaluations_total")
	return 0
}

// TestServiceFleetBitIdentityWithTelemetry re-runs the fleet acceptance test
// with span shipping enabled: trace-context propagation and remote span
// capture must not move a single output bit, and the trace written from the
// job's /artifact must carry the workers' spans on their own fleet process
// tracks.
func TestServiceFleetBitIdentityWithTelemetry(t *testing.T) {
	spec := testSpec(12, 21)
	spec.Backend = "local"
	ref, refTrace := runToCompletion(t, newTestServer(t, ""), spec)

	_, ts1 := newFleetWorker(t, "span-a")
	_, ts2 := newFleetWorker(t, "span-b")
	svc, err := New(Config{
		Workers:    1,
		Generators: []datagen.Generator{testGenerator()},
		WorkerURLs: []string{ts1.URL, ts2.URL},
		Telemetry:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	remoteSpec := testSpec(12, 21)
	remoteSpec.Backend = "remote"
	job, err := svc.Submit(remoteSpec)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	got := job.status()
	if got.State != JobSucceeded {
		t.Fatalf("traced fleet job %s: %s", got.State, got.Error)
	}
	if got.Result.BestError != ref.Result.BestError ||
		!reflect.DeepEqual(got.Result.BestParams, ref.Result.BestParams) ||
		got.Result.BestValues != ref.Result.BestValues {
		t.Fatalf("span shipping moved the result:\nfleet %+v\nlocal %+v", got.Result, ref.Result)
	}
	if !reflect.DeepEqual(records(t, job), refTrace) {
		t.Fatal("span shipping moved the iteration trace")
	}
	if c := svc.Dispatcher().Counters(); c.RemoteEvals == 0 {
		t.Fatalf("dispatch counters = %+v, want remote evals", c)
	}

	// The unified trace carries the remote spans on fleet process tracks.
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	var trace bytes.Buffer
	if err := telemetry.WriteTrace(&trace, scanEvents(t, getBody(t, ts, "/v1/jobs/"+job.ID()+"/artifact"))); err != nil {
		t.Fatal(err)
	}
	st, err := telemetry.ValidateTrace(&trace)
	if err != nil {
		t.Fatal(err)
	}
	if st.FleetProcesses < 1 {
		t.Fatalf("trace stats = %+v, want at least one fleet process", st)
	}
	if st.Spans == 0 {
		t.Fatal("traced fleet job exported no spans")
	}
}

// TestServiceFleetWorkerKilledMidJob kills the only worker while a remote
// job is running: the dispatcher must degrade to local fallback and the job
// must still finish, bit-identical to a local run.
func TestServiceFleetWorkerKilledMidJob(t *testing.T) {
	spec := testSpec(24, 33)
	spec.Backend = "local"
	ref, refTrace := runToCompletion(t, newTestServer(t, ""), spec)

	_, ts := newFleetWorker(t, "doomed")
	svc := newFleetServer(t, []string{ts.URL})
	defer svc.Close()

	remoteSpec := testSpec(24, 33)
	remoteSpec.Backend = "remote"
	job, err := svc.Submit(remoteSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to make progress on the fleet", func() bool {
		return job.status().Iterations >= 4
	})
	ts.CloseClientConnections()
	ts.Close() // the fleet is gone mid-job

	<-job.Done()
	got := job.status()
	if got.State != JobSucceeded {
		t.Fatalf("job with killed worker %s: %s", got.State, got.Error)
	}
	if got.Result.BestError != ref.Result.BestError ||
		!reflect.DeepEqual(got.Result.BestParams, ref.Result.BestParams) {
		t.Fatalf("degraded result diverged:\ngot %+v\nref %+v", got.Result, ref.Result)
	}
	if !reflect.DeepEqual(records(t, job), refTrace) {
		t.Fatal("degraded iteration trace diverged from the local run")
	}
	c := svc.Dispatcher().Counters()
	if c.RemoteEvals == 0 {
		t.Fatal("job never reached the fleet before the kill")
	}
	if c.LocalEvals == 0 {
		t.Fatal("job never fell back local after the kill")
	}
}

// TestServiceFleetDeadWorkerAtStart: a fleet whose only URLs are
// unreachable still runs jobs (local fallback) — a job never dies with its
// fleet.
func TestServiceFleetDeadWorkerAtStart(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	svc := newFleetServer(t, []string{deadURL})
	defer svc.Close()
	spec := testSpec(6, 5)
	spec.Backend = "remote"
	job, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	got := job.status()
	if got.State != JobSucceeded {
		t.Fatalf("job with dead fleet %s: %s", got.State, got.Error)
	}
	if c := svc.Dispatcher().Counters(); c.LocalEvals == 0 {
		t.Fatalf("counters = %+v, want local fallbacks", c)
	}
}

// TestServiceFleetHTTP covers the coordinator's fleet registration
// endpoints.
func TestServiceFleetHTTP(t *testing.T) {
	svc := newTestServer(t, "")
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Announce, heartbeat (same ID), list.
	reg := backend.WorkerRegistration{URL: "http://203.0.113.9:9090", Name: "w0", Capacity: 2}
	var first, second struct {
		ID int `json:"id"`
	}
	if code := httpJSON(t, ts, "POST", "/v1/workers", reg, &first); code != http.StatusOK {
		t.Fatalf("announce = %d", code)
	}
	if code := httpJSON(t, ts, "POST", "/v1/workers", reg, &second); code != http.StatusOK {
		t.Fatalf("re-announce = %d", code)
	}
	if first.ID != second.ID {
		t.Fatalf("heartbeat minted a new ID: %d then %d", first.ID, second.ID)
	}
	var list FleetStatus
	httpJSON(t, ts, "GET", "/v1/fleet", nil, &list)
	if len(list.Workers) != 1 || list.Workers[0].Capacity != 2 || list.Workers[0].Name != "w0" {
		t.Fatalf("fleet list = %+v", list)
	}

	// A protocol-mismatched registration is rejected.
	bad := reg
	bad.URL = "http://203.0.113.10:9090"
	bad.Protocol = backend.ProtocolVersion + 1
	if code := httpJSON(t, ts, "POST", "/v1/workers", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("mismatched announce = %d", code)
	}

	// Withdraw, then a second withdraw misses.
	path := "/v1/workers?url=" + url.QueryEscape(reg.URL)
	if code := httpJSON(t, ts, "DELETE", path, nil, nil); code != http.StatusOK {
		t.Fatalf("withdraw = %d", code)
	}
	if code := httpJSON(t, ts, "DELETE", path, nil, nil); code != http.StatusNotFound {
		t.Fatalf("double withdraw = %d", code)
	}
}

// TestServiceFleetEndpoint: GET /v1/fleet is the dispatcher's view of the
// fleet, row for row. Each figure has one publisher: the coordinator's
// /metrics carries no datamime_worker_* family (every worker serves its own),
// and the fleet has no second listing at GET /v1/workers.
func TestServiceFleetEndpoint(t *testing.T) {
	_, ts1 := newFleetWorker(t, "obs-a")
	_, ts2 := newFleetWorker(t, "obs-b")
	svc := newFleetServer(t, []string{ts1.URL, ts2.URL})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var fleet FleetStatus
	if code := httpJSON(t, ts, "GET", "/v1/fleet", nil, &fleet); code != http.StatusOK {
		t.Fatalf("/v1/fleet = %d", code)
	}
	want := svc.Dispatcher().Workers()
	// last_seen_age_ms is a clock reading, taken anew by each snapshot.
	for _, rows := range [][]backend.WorkerInfo{fleet.Workers, want} {
		for i := range rows {
			rows[i].LastSeenAgeMS = 0
		}
	}
	if len(want) != 2 || !reflect.DeepEqual(fleet.Workers, want) {
		t.Fatalf("/v1/fleet rows %+v\nwant the dispatcher's %+v", fleet.Workers, want)
	}

	get := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	coord := get(ts.URL + "/metrics")
	for _, family := range []string{
		"datamimed_evaluations_total",     // the coordinator's own registry
		"datamimed_go_goroutines",         // its runtime health
		"datamimed_fleet_worker_healthy{", // worker liveness, from its probes
	} {
		if !strings.Contains(coord, family) {
			t.Errorf("coordinator /metrics missing %q", family)
		}
	}
	for _, line := range strings.Split(coord, "\n") {
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		if strings.HasPrefix(name, "datamime_worker_") {
			t.Errorf("coordinator /metrics republishes a worker family: %q", line)
		}
	}
	worker := get(ts1.URL + "/metrics")
	for _, family := range []string{"datamime_worker_capacity", "datamime_worker_go_goroutines"} {
		if !strings.Contains(worker, family) {
			t.Errorf("worker /metrics missing %q", family)
		}
	}

	if code := httpJSON(t, ts, "GET", "/v1/workers", nil, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/workers = %d, want 405", code)
	}
}

// TestOversizeBodiesRejected: every endpoint that decodes a body the server
// did not write stops reading at its bound and answers 413.
func TestOversizeBodiesRejected(t *testing.T) {
	svc := newTestServer(t, "")
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for _, tc := range []struct{ method, path, field string }{
		{"POST", "/v1/jobs", "generator"},
		{"POST", "/v1/workers", "url"},
	} {
		// Well-formed up to the bound: one string value that runs past it.
		body := `{"` + tc.field + `":"` + strings.Repeat("x", maxBodyBytes) + `"}`
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s with %d-byte body = %d, want 413", tc.method, tc.path, len(body), resp.StatusCode)
		}
	}
	if n := len(svc.Jobs()); n != 0 {
		t.Errorf("oversize POST /v1/jobs enqueued %d jobs", n)
	}
}
