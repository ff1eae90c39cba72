package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
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
func TestReportAndTimelineGolden(t *testing.T) {
	diag := filepath.Join(t.TempDir(), "diag.json")
	for _, c := range []struct {
		golden string
		got    []byte
	}{
		{"testdata/report.txt", stdoutOf(t, runReport, "-artifact", fixture)},
		{fixtureDir + "/run.summary.json", stdoutOf(t, runReport, "-artifact", fixture, "-json")},
		{"", stdoutOf(t, runReport, "-artifact", fixture, "-quiet", "-diagnostics", diag)},
		{fixtureDir + "/run.diagnostics.json", readFile(t, diag)},
		{"testdata/timeline.txt", stdoutOf(t, runTimeline, "-artifact", fixture)},
	} {
		var want []byte
		if c.golden != "" {
			want = readFile(t, c.golden)
		}
		if !bytes.Equal(c.got, want) {
			t.Errorf("output drifted from %q\n--- got ---\n%s", c.golden, c.got)
		}
	}
}

// TestCorpusGolden pins `corpus list` and `corpus trends` on a fixture corpus
// of three indexed runs (two of one scenario sharing the fixture artifact,
// one of another with no artifact), and checks that `corpus compare -exact`
// of a run against its identical rerun passes the gate.
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
		stdoutOf(t, runCorpusCompare, "-dir", dir, "-a", pair[0], "-b", pair[1], "-exact")
	}
}
