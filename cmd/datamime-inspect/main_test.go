package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
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

// TestMain runs main itself when a test re-executes this binary as the
// command, so the command's real flag sets parse real arguments.
func TestMain(m *testing.M) {
	if os.Getenv("DATAMIME_RUN_MAIN") == "1" {
		// The test binary's own -test.* flags are not the command's.
		flag.CommandLine = flag.NewFlagSet("datamime-inspect", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs main with args in a child process and returns its stderr
// and exit code.
func runCommand(t *testing.T, args ...string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DATAMIME_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return stderr.Bytes(), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return stderr.Bytes(), 0
}

// TestDiffRemovedFlagsAreRefused: diff compares at one fixed tolerance, so
// -tolerance and -error-tolerance are unknown flags like any other, refused
// with exit 2 (an input error, not a regression) before anything is read.
func TestDiffRemovedFlagsAreRefused(t *testing.T) {
	for _, flagName := range []string{"-tolerance", "-error-tolerance"} {
		got, code := runCommand(t, "diff", "-a", fixture, "-b", fixture, flagName, "0.1")
		if code != 2 || !strings.Contains(string(got), "flag provided but not defined: "+flagName) {
			t.Errorf("diff %s exited %d:\n%s", flagName, code, got)
		}
	}
}

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

// TestTimelineTraceOfArtifactPrefix: an artifact cut after its first
// budget.wait line, as /artifact reads while a slot runs its first profile,
// exports a trace that validates, and the report names the wait instead of
// advising to record a run that is recorded.
func TestTimelineTraceOfArtifactPrefix(t *testing.T) {
	dir := t.TempDir()
	cut := filepath.Join(dir, "cut.jsonl")
	prefix := `{"type":"log","msg":"datamime run artifact: workload=mem-fb iterations=2 seed=1 parallel=2"}
{"type":"span","phase":"budget.wait","dur_ns":1879,"time_ns":1792382808931911562,"attrs":{"worker":0}}
`
	if err := os.WriteFile(cut, []byte(prefix), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "trace.json")
	out := stdoutOf(t, runTimeline, "-artifact", cut, "-trace", path)
	if !bytes.Contains(out, []byte("trace "+path+" ok: ")) {
		t.Errorf("timeline -trace printed no validation line:\n%s", out)
	}
	if !bytes.Contains(out, []byte("1 budget wait, no finished profile yet\n")) || bytes.Contains(out, []byte("record the run")) {
		t.Errorf("timeline of a live prefix does not name its budget wait:\n%s", out)
	}
}

// TestTimelineTraceSlicesNest: on every track of an exported trace, two
// slices either nest or do not overlap. The corpus fixture job-1.jsonl was
// logged when a profile still carried the profile.run and profile.curves
// spans, which the exporter does not know; they land on eval lanes packed so
// that none overlaps another.
func TestTimelineTraceSlicesNest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	stdoutOf(t, runTimeline, "-artifact", "testdata/corpus/job-1.jsonl", "-trace", path)
	var trace struct {
		TraceEvents []struct {
			Name     string
			Ph       string
			PID, TID int
			TS, Dur  float64
		}
	}
	if err := json.Unmarshal(readFile(t, path), &trace); err != nil {
		t.Fatal(err)
	}
	type track struct{ pid, tid int }
	type slice struct {
		name       string
		start, end float64
	}
	tracks := map[track][]slice{}
	legacy := 0
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			k := track{ev.PID, ev.TID}
			tracks[k] = append(tracks[k], slice{ev.Name, ev.TS, ev.TS + ev.Dur})
			if ev.Name == "profile.run" || ev.Name == "profile.curves" {
				legacy++
			}
		}
	}
	if legacy == 0 {
		t.Fatal("the fixture's trace has no profile.run or profile.curves slice")
	}
	for k, slices := range tracks {
		for i, a := range slices {
			for _, b := range slices[i+1:] {
				overlap := a.start < b.end && b.start < a.end
				nested := (a.start <= b.start && b.end <= a.end) || (b.start <= a.start && a.end <= b.end)
				if overlap && !nested {
					t.Errorf("pid %d tid %d: %s [%g, %g] and %s [%g, %g] overlap without nesting",
						k.pid, k.tid, a.name, a.start, a.end, b.name, b.start, b.end)
				}
			}
		}
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

// TestDiffExactComparesEveryIteration: the fixture with one iteration that
// is not the best altered (its error, first parameter and every component
// distance) keeps its best point and its convergence series.
// `diff` finds no regression in it, and `diff -exact` exits 1 on it.
func TestDiffExactComparesEveryIteration(t *testing.T) {
	var out bytes.Buffer
	altered := false
	for _, line := range bytes.SplitAfter(readFile(t, fixture), []byte("\n")) {
		var ev telemetry.Event
		if json.Unmarshal(line, &ev) == nil && ev.Type == telemetry.TypeEval && ev.Iter == 3 {
			for k := range ev.Attrs {
				if strings.HasPrefix(k, telemetry.EMDPrefix) {
					ev.Attrs[k] += 0.01
				}
			}
			ev.Attrs[telemetry.AttrError] += 0.5
			ev.Params[0] *= 1.5
			data, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			line, altered = append(data, '\n'), true
		}
		out.Write(line)
	}
	if !altered {
		t.Fatal("the fixture has no eval of iteration 3")
	}
	path := filepath.Join(t.TempDir(), "altered.jsonl")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := stdoutOf(t, runDiff, "-a", fixture, "-b", path); !bytes.Contains(got, []byte("iteration 3 differs")) {
		t.Errorf("diff does not name iteration 3:\n%s", got)
	}
	if err := runDiff([]string{"-a", fixture, "-b", path, "-exact"}); err != errRegressed {
		t.Errorf("diff -exact = %v, want exit 1 (%v)", err, errRegressed)
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
