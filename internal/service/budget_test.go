package service

import (
	"bytes"
	"cmp"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"datamime/internal/datagen"
	"datamime/internal/inspect"
	"datamime/internal/telemetry"
)

// maxOverlap is the most spans of phase that were open at one instant, each
// span covering [TimeNS-DurNS, TimeNS). A span ending when another starts
// does not overlap it.
func maxOverlap(events []telemetry.Event, phase string) int {
	type edge struct {
		t     int64
		delta int
	}
	var edges []edge
	for _, ev := range events {
		if ev.Type == telemetry.TypeSpan && ev.Phase == phase {
			edges = append(edges, edge{ev.TimeNS - ev.DurNS, 1}, edge{ev.TimeNS, -1})
		}
	}
	slices.SortFunc(edges, func(a, b edge) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		return a.delta - b.delta // ends first
	})
	open, most := 0, 0
	for _, e := range edges {
		open += e.delta
		most = max(most, open)
	}
	return most
}

// sweepSpec is testSpec with a way-curve sweep, so each evaluation runs
// several simulations that a pool can overlap.
func sweepSpec(iterations int, seed uint64) JobSpec {
	spec := testSpec(iterations, seed)
	spec.Profiling.SkipCurves = false
	spec.Profiling.CurvePoints = 3
	spec.Profiling.CurveWindows = 1
	return spec
}

// TestFallbackRunsUnderProcessBudget: everything a server simulates in
// process draws on one budget. Two jobs run at once, each evaluating two
// candidates per batch: one in-process, one "remote" with no workers, so
// every evaluation falls back to the server's LocalBackend. Across both
// jobs' artifacts, no more profile.sim spans overlap than the budget holds,
// and the fallback job's run is identical to an in-process run of its seed.
// The process is pinned two wide, so the budget (2) is smaller than what
// the jobs could run at once (2 jobs × 2 candidates × a sweep) on any host.
func TestFallbackRunsUnderProcessBudget(t *testing.T) {
	const procs = 2
	old := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	svc, err := New(Config{
		Workers:    2,
		Generators: []datagen.Generator{testGenerator()},
		Telemetry:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	local := sweepSpec(6, 41)
	local.Backend = "local"
	remote := sweepSpec(6, 43)
	remote.Backend = "remote"
	var jobs []*Job
	for _, spec := range []JobSpec{local, remote} {
		job, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	var events []telemetry.Event
	for _, job := range jobs {
		<-job.Done()
		if st := job.status(); st.State != JobSucceeded {
			t.Fatalf("job %s (%s): %s", job.ID(), st.Backend, st.Error)
		}
		events = append(events, artifactEvents(job)...)
	}
	if c := svc.Dispatcher().Counters(); c.LocalEvals == 0 {
		t.Fatalf("dispatch counters = %+v, want local fallbacks", c)
	}
	if got := maxOverlap(events, telemetry.PhaseSimRun); got > procs {
		t.Errorf("%d profile.sim spans overlapped; the process budget holds %d", got, procs)
	}

	ref := newTestServer(t, "")
	defer ref.Close()
	remote.Backend = "local"
	inProcess, err := ref.Submit(remote)
	if err != nil {
		t.Fatal(err)
	}
	<-inProcess.Done()
	want, err := inspect.NewRun(artifactEvents(inProcess))
	if err != nil {
		t.Fatal(err)
	}
	got, err := inspect.NewRun(artifactEvents(jobs[1]))
	if err != nil {
		t.Fatal(err)
	}
	if d := inspect.DiffRuns(want, got, inspect.DiffOptions{}); !d.Identical() {
		t.Fatalf("the fallback run differs from the in-process one: %v", d.Differences)
	}
}

// removedField is the sweep width job specs carried under "profiling"
// before every process took it from GOMAXPROCS.
const removedField = "profile_workers"

// TestLogWithProfileWorkersResumes: a job log whose spec still carries
// removedField, as servers that had the knob wrote it, restores and resumes
// to the run an uninterrupted job of the same spec makes, under the same
// scenario hash. Logs decode leniently.
func TestLogWithProfileWorkersResumes(t *testing.T) {
	dir := t.TempDir()
	svc := newTestServer(t, dir)
	spec := testSpec(8, 29)
	job, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	want, err := inspect.NewRun(artifactEvents(job))
	if err != nil {
		t.Fatal(err)
	}
	scenario := findRecord(t, svc, job.ID()).Scenario
	svc.Close()
	data, err := os.ReadFile(filepath.Join(dir, job.ID()+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	// The log up to iteration 4, its header's profiling object ending in the
	// old field, where ProfilingSpec marshaled it.
	lines, iters := unfinishedLog(data)
	header := bytes.Replace(lines[0], []byte(`"skip_curves":true}`), []byte(`"skip_curves":true,"`+removedField+`":4}`), 1)
	if bytes.Equal(header, lines[0]) {
		t.Fatalf("the header has no profiling object to extend: %s", lines[0])
	}
	old := slices.Clone(header)
	for i, line := range lines[1:] {
		if iters[i+1] == 4 {
			break
		}
		old = append(old, line...)
	}
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, job.ID()+".jsonl"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	svc = newTestServer(t, dir)
	defer svc.Close()
	resumed, ok := svc.Job(job.ID())
	if !ok {
		t.Fatal("the job was not restored")
	}
	<-resumed.Done()
	if st := resumed.status(); st.State != JobSucceeded {
		t.Fatalf("resumed job %s: %s", st.State, st.Error)
	}
	got, err := inspect.NewRun(artifactEvents(resumed))
	if err != nil {
		t.Fatal(err)
	}
	if d := inspect.DiffRuns(want, got, inspect.DiffOptions{}); !d.Identical() {
		t.Fatalf("the resumed run differs from the uninterrupted one: %v", d.Differences)
	}
	if got := findRecord(t, svc, job.ID()).Scenario; got != scenario || got != scenarioHash(spec) {
		t.Fatalf("scenario %s, want %s", got, scenario)
	}
}

// TestSubmitRefusesProfileWorkers: submission decodes strictly, so a spec
// that still sets removedField is a 400 naming it, and no job is created.
func TestSubmitRefusesProfileWorkers(t *testing.T) {
	svc := newTestServer(t, "")
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	body := `{"generator":"kv-service-test","iterations":3,"metric":"cpu_util","metric_value":0.2,` +
		`"profiling":{"windows":4,"` + removedField + `":4}}`
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), removedField) {
		t.Fatalf("submit = %d %s, want a 400 naming %s", resp.StatusCode, msg, removedField)
	}
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Fatalf("the refused spec left %d jobs", len(jobs))
	}
}
