package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datamime/internal/service"
	"datamime/internal/telemetry"
)

// fixture is the real seeded 16-iteration mem-fb artifact internal/inspect
// pins its machine-readable goldens on.
const (
	fixtureDir = "../../internal/inspect/testdata"
	fixture    = fixtureDir + "/run.jsonl"
)

// stdoutOf runs one subcommand the way main dispatches it and returns what
// it printed.
func stdoutOf(t *testing.T, run func([]string) error, args ...string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = stdout
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return readFile(t, path)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestReportAndTimelineGolden pins the CLI's outputs on the fixture byte for
// byte: `report -json` and `report -diagnostics` must be exactly the goldens
// internal/inspect holds for the same artifact (the CLI adds nothing to the
// library's bytes), and the text report and the timeline have goldens here.
// The fixture served over HTTP, as datamimed serves a job's /artifact, reads
// to the same bytes and diffs -exact against itself, and a URL that does not
// answer 2xx is an input error (exit 2), never a regression.
func TestReportAndTimelineGolden(t *testing.T) {
	dir := t.TempDir()
	diag := filepath.Join(dir, "diag.json")
	profiles := filepath.Join(dir, "profiles.json")
	if err := os.WriteFile(profiles, []byte(`{"job":"job-1","components":{"cpu_util":0.25}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "run.jsonl"), readFile(t, fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.FileServer(http.Dir(dir)))
	defer srv.Close()
	url := srv.URL + "/run.jsonl"

	for _, c := range []struct {
		golden string
		got    []byte
	}{
		{"testdata/report.txt", stdoutOf(t, runReport, "-artifact", fixture)},
		{"testdata/report.txt", stdoutOf(t, runReport, "-artifact", url)},
		{fixtureDir + "/run.summary.json", stdoutOf(t, runReport, "-artifact", fixture, "-json")},
		{"", stdoutOf(t, runReport, "-artifact", fixture, "-quiet", "-diagnostics", diag)},
		{fixtureDir + "/run.diagnostics.json", readFile(t, diag)},
		{"testdata/timeline.txt", stdoutOf(t, runTimeline, "-artifact", fixture)},
		{"testdata/timeline.txt", stdoutOf(t, runTimeline, "-artifact", url)},
	} {
		var want []byte
		if c.golden != "" {
			want = readFile(t, c.golden)
		}
		if !bytes.Equal(c.got, want) {
			t.Errorf("output drifted from %q\n--- got ---\n%s", c.golden, c.got)
		}
	}

	fromFile := stdoutOf(t, runReport, "-artifact", fixture, "-profiles", profiles, "-json")
	if fromURL := stdoutOf(t, runReport, "-artifact", url, "-profiles", srv.URL+"/profiles.json", "-json"); !bytes.Equal(fromURL, fromFile) {
		t.Errorf("report over URLs differs from report over files\n--- url ---\n%s", fromURL)
	}
	for _, args := range [][]string{
		{"-artifact", srv.URL + "/missing.jsonl"},
		{"-artifact", url, "-profiles", srv.URL + "/missing.json"},
	} {
		if err := runReport(args); err == nil || !strings.Contains(err.Error(), "404") {
			t.Errorf("report %v = %v, want a 404 error", args, err)
		}
	}
	if err := runTimeline([]string{"-artifact", srv.URL + "/missing.jsonl"}); err == nil {
		t.Error("timeline of a 404 URL succeeded")
	}
	stdoutOf(t, runDiff, "-a", url, "-b", fixture, "-exact")
	if err := runDiff([]string{"-a", url, "-b", srv.URL + "/missing.jsonl"}); err == nil || err == errRegressed {
		t.Errorf("diff against a 404 URL = %v, want an input error", err)
	}
}

// TestTimelineWritesTrace: `timeline -trace` writes the fixture's Perfetto
// trace, which validates and drops nothing (the artifact's header line is
// not a timeline event), and prints the timeline golden before its summary.
func TestTimelineWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	out := stdoutOf(t, runTimeline, "-artifact", fixture, "-trace", path)
	if want := readFile(t, "testdata/timeline.txt"); !bytes.HasPrefix(out, want) {
		t.Errorf("timeline -trace output does not start with the timeline golden:\n%s", out)
	}
	if !bytes.Contains(out, []byte("trace "+path+" ok: ")) {
		t.Errorf("timeline -trace printed no validation line:\n%s", out)
	}
	data := readFile(t, path)
	st, err := telemetry.ValidateTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if st.Spans == 0 || st.WorkerTracks == 0 {
		t.Errorf("trace stats = %+v, want spans on worker tracks", st)
	}
	if bytes.Contains(data, []byte("dropped_unstamped")) {
		t.Error("the fixture's trace reports dropped unstamped events")
	}
}

// TestCorpusGolden pins `corpus list` and `corpus trends` on a fixture
// checkpoint directory of three job logs with record lines (two of one
// scenario holding the fixture artifact's events, one of another holding
// none), and checks that `diff -exact` of a run's log against its identical
// rerun's passes the gate.
func TestCorpusGolden(t *testing.T) {
	const dir = "testdata/corpus"
	for _, c := range []struct {
		golden string
		got    []byte
	}{
		{"testdata/corpus-list.txt", stdoutOf(t, runCorpusList, "-dir", dir)},
		{"testdata/corpus-trends.txt", stdoutOf(t, runCorpusTrends, "-dir", dir)},
	} {
		if want := readFile(t, c.golden); !bytes.Equal(c.got, want) {
			t.Errorf("output drifted from %q\n--- got ---\n%s", c.golden, c.got)
		}
	}
	for _, pair := range [][2]string{{"job-1", "job-2"}, {"job-2", "job-2"}} {
		stdoutOf(t, runDiff, "-a", dir+"/"+pair[0]+".jsonl", "-b", dir+"/"+pair[1]+".jsonl", "-exact")
	}
}

// TestTailGolden pins `tail`'s stdout on a seeded, telemetry-off job run by
// an in-process server: one line per iteration, then the job's terminal
// state.
func TestTailGolden(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	job, err := svc.Submit(service.JobSpec{
		Generator:   "memcached",
		Iterations:  8,
		Seed:        11,
		Optimizer:   "random",
		Metric:      "cpu_util",
		MetricValue: 0.2,
		Profiling:   &service.ProfilingSpec{WindowCycles: 100_000, Windows: 4, WarmupWindows: 1, SkipCurves: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := stdoutOf(t, runTail, "-server", ts.URL, "-job", job.ID())
	if want := readFile(t, "testdata/tail.golden"); !bytes.Equal(got, want) {
		t.Errorf("output drifted from testdata/tail.golden\n--- got ---\n%s", got)
	}
}
