package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"datamime/internal/backend"
	"datamime/internal/datagen"
	"datamime/internal/telemetry"
)

// staticMetrics serves a fixed Prometheus exposition.
func staticMetrics(t *testing.T, body string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestFederationScrapeGolden: two reachable workers (one with a histogram
// and a non-federated family, one exercising the untyped fallback) plus one
// unreachable worker produce a byte-stable federated exposition with the
// worker label injected first and a datamime_worker_up row per worker.
func TestFederationScrapeGolden(t *testing.T) {
	wa := staticMetrics(t, `# HELP datamime_worker_cache_local_hits_total Worker-tier cache hits.
# TYPE datamime_worker_cache_local_hits_total counter
datamime_worker_cache_local_hits_total 30
datamime_worker_cache_misses_total 10
# HELP datamime_worker_evaluations_total Completed evaluations.
# TYPE datamime_worker_evaluations_total counter
datamime_worker_evaluations_total 42
# TYPE process_cpu_seconds_total counter
process_cpu_seconds_total 1.5
`)
	wb := staticMetrics(t, `# TYPE datamime_worker_eval_seconds histogram
datamime_worker_eval_seconds_bucket{le="1"} 3
datamime_worker_eval_seconds_bucket{le="+Inf"} 5
datamime_worker_eval_seconds_sum 4.2
datamime_worker_eval_seconds_count 5
# TYPE datamime_worker_evaluations_total counter
datamime_worker_evaluations_total 7
`)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	fed := newFederation()
	fed.Scrape(context.Background(), []backend.WorkerInfo{
		{Name: "worker-a", URL: wa.URL},
		{Name: "worker-b", URL: wb.URL},
		{Name: "worker-dead", URL: deadURL},
		{Name: "in-process"}, // no URL: never scraped
	})

	var buf bytes.Buffer
	fed.WritePrometheus(&buf)

	// The scrape-duration and staleness gauges carry wall-clock values, so
	// they are asserted structurally and then filtered out before the
	// byte-exact comparison of the deterministic remainder.
	var stable []string
	durWorkers := map[string]bool{}
	staleWorkers := map[string]bool{}
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "datamime_worker_scrape_duration_seconds{"):
			durWorkers[line[strings.Index(line, `"`)+1:strings.LastIndex(line, `"`)]] = true
		case strings.HasPrefix(line, "datamime_worker_scrape_staleness_seconds{"):
			staleWorkers[line[strings.Index(line, `"`)+1:strings.LastIndex(line, `"`)]] = true
		case strings.HasPrefix(line, "# HELP datamime_worker_scrape_") ||
			strings.HasPrefix(line, "# TYPE datamime_worker_scrape_"):
		case line != "":
			stable = append(stable, line)
		}
	}
	// Every scraped worker has a duration sample (including the failed
	// scrape); only workers with a successful scrape have staleness.
	for _, w := range []string{"worker-a", "worker-b", "worker-dead"} {
		if !durWorkers[w] {
			t.Errorf("no scrape-duration sample for %s", w)
		}
	}
	if !staleWorkers["worker-a"] || !staleWorkers["worker-b"] {
		t.Errorf("staleness samples missing for reachable workers: %v", staleWorkers)
	}
	if staleWorkers["worker-dead"] {
		t.Error("never-scraped-successfully worker has a staleness sample")
	}

	want := `# HELP datamime_worker_up Whether the last federation scrape of the worker's /metrics succeeded.
# TYPE datamime_worker_up gauge
datamime_worker_up{worker="worker-a"} 1
datamime_worker_up{worker="worker-b"} 1
datamime_worker_up{worker="worker-dead"} 0
# HELP datamime_worker_cache_local_hits_total Worker-tier cache hits.
# TYPE datamime_worker_cache_local_hits_total counter
datamime_worker_cache_local_hits_total{worker="worker-a"} 30
# TYPE datamime_worker_cache_misses_total untyped
datamime_worker_cache_misses_total{worker="worker-a"} 10
# TYPE datamime_worker_eval_seconds histogram
datamime_worker_eval_seconds_bucket{worker="worker-b",le="1"} 3
datamime_worker_eval_seconds_bucket{worker="worker-b",le="+Inf"} 5
datamime_worker_eval_seconds_sum{worker="worker-b"} 4.2
datamime_worker_eval_seconds_count{worker="worker-b"} 5
# HELP datamime_worker_evaluations_total Completed evaluations.
# TYPE datamime_worker_evaluations_total counter
datamime_worker_evaluations_total{worker="worker-a"} 42
datamime_worker_evaluations_total{worker="worker-b"} 7
`
	if got := strings.Join(stable, ""); got != want {
		t.Errorf("federated exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	st := fed.Stats()
	if st.Workers != 3 || st.ScrapesTotal != 3 || st.ScrapeErrors != 1 {
		t.Errorf("Stats() = %+v, want 3 workers, 3 scrapes, 1 error", st)
	}
	if sum := fed.summarize("worker-a"); !sum.hasRate || sum.hitRate != 0.75 {
		t.Errorf("worker-a summary = %+v, want hit rate 0.75", sum)
	}
	if sum := fed.summarize("worker-dead"); !sum.scraped || sum.up {
		t.Errorf("worker-dead summary = %+v, want scraped+down", sum)
	}

	// A rescrape without the departed workers drops their state.
	fed.Scrape(context.Background(), []backend.WorkerInfo{{Name: "worker-a", URL: wa.URL}})
	if st := fed.Stats(); st.Workers != 1 {
		t.Errorf("after departure Stats() = %+v, want 1 worker", st)
	}
}

// TestServiceFleetEndpoint: the coordinator's /v1/fleet joins the
// dispatcher's routing view with the federation's scraped view, and /metrics
// re-exports the workers' own families beside the coordinator's.
func TestServiceFleetEndpoint(t *testing.T) {
	_, ts1 := newFleetWorker(t, "obs-a")
	_, ts2 := newFleetWorker(t, "obs-b")
	svc := newFleetServer(t, []string{ts1.URL, ts2.URL})
	defer svc.Close()

	// Drive one scrape deterministically instead of waiting on the loop.
	svc.Federation().Scrape(context.Background(), svc.Dispatcher().Workers())

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var fleet FleetStatus
	if code := httpJSON(t, ts, "GET", "/v1/fleet", nil, &fleet); code != http.StatusOK {
		t.Fatalf("/v1/fleet = %d", code)
	}
	if len(fleet.Workers) != 2 {
		t.Fatalf("fleet rows = %d, want 2", len(fleet.Workers))
	}
	for _, row := range fleet.Workers {
		if row.ScrapeUp == nil || !*row.ScrapeUp {
			t.Errorf("worker %s: scrape_up = %v, want true", row.Name, row.ScrapeUp)
		}
		// The worker's runtime health rode along with the scrape.
		if row.Goroutines <= 0 || row.HeapBytes <= 0 {
			t.Errorf("worker %s: runtime health missing (goroutines %g, heap %g)",
				row.Name, row.Goroutines, row.HeapBytes)
		}
	}
	if fleet.Federation.ScrapesTotal != 2 || fleet.Federation.ScrapeErrors != 0 {
		t.Errorf("federation stats = %+v", fleet.Federation)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(data)
	for _, want := range []string{
		"datamimed_evaluations_total", // the coordinator's own registry
		"datamimed_go_goroutines",     // its runtime health
		"# TYPE datamime_worker_up gauge",
		"datamime_worker_capacity{worker=", // the workers' families, relabeled
		"datamime_worker_go_goroutines{worker=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Statically-registered workers are keyed by URL; both scraped up.
	if n := strings.Count(out, `datamime_worker_up{worker="http`); n != 2 {
		t.Errorf("datamime_worker_up rows = %d, want 2", n)
	}
}

// TestServiceFleetBitIdentityWithTelemetry re-runs the fleet acceptance test
// with span shipping enabled: trace-context propagation and remote span
// capture must not move a single output bit, and the job's exported trace
// must carry the workers' spans on their own fleet process tracks.
func TestServiceFleetBitIdentityWithTelemetry(t *testing.T) {
	spec := testSpec(12, 21)
	spec.Backend = "local"
	ref := runToCompletion(t, newTestServer(t, ""), spec)

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
	got := job.status(0)
	if got.State != JobSucceeded {
		t.Fatalf("traced fleet job %s: %s", got.State, got.Error)
	}
	if got.Result.BestError != ref.Result.BestError ||
		!reflect.DeepEqual(got.Result.BestParams, ref.Result.BestParams) ||
		got.Result.BestValues != ref.Result.BestValues {
		t.Fatalf("span shipping moved the result:\nfleet %+v\nlocal %+v", got.Result, ref.Result)
	}
	if !reflect.DeepEqual(got.Trace, ref.Trace) {
		t.Fatal("span shipping moved the iteration trace")
	}
	if c := svc.Dispatcher().Counters(); c.RemoteEvals == 0 {
		t.Fatalf("dispatch counters = %+v, want remote evals", c)
	}

	// The unified trace carries the remote spans on fleet process tracks.
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + job.ID() + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace = %d", resp.StatusCode)
	}
	st, err := telemetry.ValidateTrace(resp.Body)
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
