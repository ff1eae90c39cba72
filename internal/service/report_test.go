package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"datamime/internal/datagen"
	"datamime/internal/inspect"
	"datamime/internal/profile"
	"datamime/internal/sim"
	"datamime/internal/telemetry"
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

// TestReportEndpoint: a client renders a job's views from its /artifact and
// /profiles, and gets the same bytes the server would render from memory.
// A telemetry-on GP job runs through a fleet Dispatcher to success; then
//   - the HTML report from the downloaded artifact and profiles doc is
//     byte-equal to the one rendered from jobRun and jobProfiles;
//   - WriteTrace over the scanned artifact is byte-equal to WriteTrace over
//     artifactEvents, and validates with fleet processes and no drops;
//   - the report's search health is NewSearchHealth of the job's run.
func TestReportEndpoint(t *testing.T) {
	_, worker := newFleetWorker(t, "report-a")
	svc, err := New(Config{
		Workers:    1,
		Generators: []datagen.Generator{testGenerator()},
		WorkerURLs: []string{worker.URL},
		Telemetry:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	spec := profileSpec(testTargetProfile(t), 10, 9)
	spec.Optimizer = "" // GP, so the run carries search-health snapshots
	spec.Backend = "remote"
	job, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if st := job.status(); st.State != JobSucceeded {
		t.Fatalf("job %s: %s", st.State, st.Error)
	}

	artifact := getBody(t, ts, "/v1/jobs/"+job.ID()+"/artifact")
	run, err := inspect.LoadRun(bytes.NewReader(artifact))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := inspect.DecodeProfilesDoc(getBody(t, ts, "/v1/jobs/"+job.ID()+"/profiles"))
	if err != nil {
		t.Fatal(err)
	}
	client := inspect.NewReport(run, doc, "")
	served, _, err := jobRun(job)
	if err != nil {
		t.Fatal(err)
	}
	server := inspect.NewReport(served, svc.jobProfiles(job), job.ID())

	render := func(r *inspect.Report) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := r.RenderHTML(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	html := render(client)
	if !bytes.Equal(html, render(server)) {
		t.Fatal("the report rendered from /artifact and /profiles differs from the server's")
	}
	for _, want := range []string{"<svg", "Error attribution", job.ID(), "eCDF", "<h2>Search health</h2>"} {
		if !bytes.Contains(html, []byte(want)) {
			t.Fatalf("report HTML missing %q", want)
		}
	}
	// Self-contained: no external fetches.
	for _, banned := range []string{"http://", "https://", "src="} {
		if bytes.Contains(html, []byte(banned)) {
			t.Fatalf("report HTML not self-contained: found %q", banned)
		}
	}

	var fromArtifact, fromMemory bytes.Buffer
	if err := telemetry.WriteTrace(&fromArtifact, scanEvents(t, artifact)); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteTrace(&fromMemory, artifactEvents(job)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromArtifact.Bytes(), fromMemory.Bytes()) {
		t.Fatal("the trace written from /artifact differs from the server's")
	}
	st, err := telemetry.ValidateTrace(&fromArtifact)
	if err != nil {
		t.Fatal(err)
	}
	if st.FleetProcesses < 1 || st.Spans == 0 || st.DroppedUnstamped != 0 {
		t.Fatalf("trace stats = %+v, want fleet processes, spans and no drops", st)
	}

	if client.Health == nil || !reflect.DeepEqual(client.Health, inspect.NewSearchHealth(served)) {
		t.Fatalf("report health %+v, want the job run's", client.Health)
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
