package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"datamime/internal/inspect"
	"datamime/internal/profile"
	"datamime/internal/sim"
)

// testTargetProfile profiles the test generator's benchmark at a fixed point
// with the test budgets, yielding an inline target for ProfileObjective jobs
// without the cost of a real workload target.
func testTargetProfile(t *testing.T) []byte {
	t.Helper()
	machine, err := sim.MachineByName("broadwell")
	if err != nil {
		t.Fatal(err)
	}
	pr := profile.New(machine)
	pr.WindowCycles = 60_000
	pr.Windows = 4
	pr.WarmupWindows = 1
	pr.SkipCurves = true
	target, err := pr.Profile(testGenerator().Benchmark([]float64{60_000, 0.7, 128}), 3)
	if err != nil {
		t.Fatal(err)
	}
	data, err := target.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// profileSpec builds a fast ProfileObjective job spec from an inline target.
func profileSpec(target []byte, iterations int, seed uint64) JobSpec {
	spec := testSpec(iterations, seed)
	spec.Metric = ""
	spec.MetricValue = 0
	spec.TargetProfile = target
	return spec
}

// TestProfilesEndpoint: a finished profile-objective job serves a complete
// target/best profile pair with per-component attribution.
func TestProfilesEndpoint(t *testing.T) {
	svc := newTestServer(t, "")
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var submitted struct {
		ID string `json:"id"`
	}
	spec := profileSpec(testTargetProfile(t), 6, 5)
	if code := httpJSON(t, ts, "POST", "/v1/jobs", spec, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitFor(t, "job to succeed", func() bool {
		var st JobStatus
		httpJSON(t, ts, "GET", "/v1/jobs/"+submitted.ID, nil, &st)
		return st.State == JobSucceeded
	})

	var doc inspect.ProfilesDoc
	if code := httpJSON(t, ts, "GET", "/v1/jobs/"+submitted.ID+"/profiles", nil, &doc); code != http.StatusOK {
		t.Fatalf("profiles = %d", code)
	}
	if !doc.Complete() {
		t.Fatalf("profiles doc incomplete: target=%v best=%v", doc.Target != nil, doc.Best != nil)
	}
	if doc.Job != submitted.ID {
		t.Fatalf("doc.Job = %q, want %q", doc.Job, submitted.ID)
	}
	if len(doc.Components) == 0 {
		t.Fatal("profiles doc has no component attribution")
	}

	if code := httpJSON(t, ts, "GET", "/v1/jobs/nope/profiles", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown job profiles = %d, want 404", code)
	}
}

// TestReportEndpoint: a finished job serves a self-contained HTML report, and
// serving it twice yields byte-identical output (the determinism criterion at
// the service boundary).
func TestReportEndpoint(t *testing.T) {
	svc := newTestServer(t, "")
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var submitted struct {
		ID string `json:"id"`
	}
	spec := profileSpec(testTargetProfile(t), 6, 9)
	if code := httpJSON(t, ts, "POST", "/v1/jobs", spec, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitFor(t, "job to succeed", func() bool {
		var st JobStatus
		httpJSON(t, ts, "GET", "/v1/jobs/"+submitted.ID, nil, &st)
		return st.State == JobSucceeded
	})

	fetch := func() string {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + submitted.ID + "/report")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("report = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
			t.Fatalf("Content-Type = %q, want text/html", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	html := fetch()
	for _, want := range []string{"<svg", "Error attribution", submitted.ID, "eCDF"} {
		if !strings.Contains(html, want) {
			t.Fatalf("report HTML missing %q", want)
		}
	}
	// Self-contained: no external fetches.
	for _, banned := range []string{"http://", "https://", "src="} {
		if strings.Contains(html, banned) {
			t.Fatalf("report HTML not self-contained: found %q", banned)
		}
	}
	if again := fetch(); !bytes.Equal([]byte(html), []byte(again)) {
		t.Fatal("report HTML differs between identical requests")
	}

	if code := httpJSON(t, ts, "GET", "/v1/jobs/nope/report", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown job report = %d, want 404", code)
	}
}

// TestProfilesRecoveredAfterRestart: a job restored from its checkpoint after
// a restart (in-memory profiles gone) recovers the target/best pair through
// the shared evaluation cache by re-deriving the run's content addresses.
func TestProfilesRecoveredAfterRestart(t *testing.T) {
	dir := t.TempDir()
	svc := newTestServer(t, dir)
	ts := httptest.NewServer(svc.Handler())

	var submitted struct {
		ID string `json:"id"`
	}
	// A workload job caches its target under a spec-derived key, which the
	// recovery path can rebuild; kv-service-test evaluations populate the
	// best-point entry the same way. Workload targets are slow, so keep the
	// profiling budgets minimal.
	spec := JobSpec{
		Workload:   "mem-fb",
		Iterations: 4,
		Parallel:   2,
		Seed:       11,
		Optimizer:  "random",
		Profiling: &ProfilingSpec{
			WindowCycles:  60_000,
			Windows:       4,
			WarmupWindows: 1,
			SkipCurves:    true,
		},
	}
	if code := httpJSON(t, ts, "POST", "/v1/jobs", spec, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitFor(t, "job to succeed", func() bool {
		var st JobStatus
		httpJSON(t, ts, "GET", "/v1/jobs/"+submitted.ID, nil, &st)
		return st.State == JobSucceeded
	})
	ts.Close()
	svc.Close()

	// Restart: the restored job has no in-memory profiles, and this server's
	// cache is cold — warm it the way the original run did, by resubmitting
	// an identical job (target + best evaluations are content-addressed, so
	// the second run re-creates the same entries).
	svc2 := newTestServer(t, dir)
	defer svc2.Close()
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()

	var resubmitted struct {
		ID string `json:"id"`
	}
	if code := httpJSON(t, ts2, "POST", "/v1/jobs", spec, &resubmitted); code != http.StatusAccepted {
		t.Fatalf("resubmit = %d", code)
	}
	waitFor(t, "resubmitted job to succeed", func() bool {
		var st JobStatus
		httpJSON(t, ts2, "GET", "/v1/jobs/"+resubmitted.ID, nil, &st)
		return st.State == JobSucceeded
	})

	// The restored original job now serves a complete pair from the warmed
	// cache.
	var doc inspect.ProfilesDoc
	if code := httpJSON(t, ts2, "GET", "/v1/jobs/"+submitted.ID+"/profiles", nil, &doc); code != http.StatusOK {
		t.Fatalf("profiles = %d", code)
	}
	if !doc.Complete() {
		t.Fatalf("restored profiles doc incomplete: target=%v best=%v",
			doc.Target != nil, doc.Best != nil)
	}
}
