package corpus

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"
)

func testRecord(id, scenario string, best float64) Record {
	return Record{
		ID:         id,
		Scenario:   scenario,
		Target:     "cpu_util=0.15",
		Generator:  "memcached",
		Seed:       1,
		BestError:  best,
		BestIter:   3,
		Iterations: 8,
		Evals:      8,
		FinishedAt: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC),
	}
}

func TestCorpusSelectAndBaseline(t *testing.T) {
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	var recs []Record
	for _, i := range []int{3, 1, 10, 0, 2} {
		rec := testRecord(fmt.Sprintf("job-%d", i), "scen-a", 0.2)
		if i >= 2 {
			rec.Scenario = "scen-b"
			rec.Target = "ipc=1.2"
		}
		// job-10 finishes with job-3: the job number breaks the tie.
		rec.FinishedAt = base.Add(time.Duration(min(i, 3)) * time.Hour)
		recs = append(recs, rec)
	}
	Sort(recs)
	var order []string
	for _, rec := range recs {
		order = append(order, rec.ID)
	}
	if want := []string{"job-0", "job-1", "job-2", "job-3", "job-10"}; !slices.Equal(order, want) {
		t.Fatalf("corpus order %v, want %v", order, want)
	}
	if got := Select(recs, Filter{Scenario: "scen-a"}); len(got) != 2 {
		t.Fatalf("scenario filter: %d, want 2", len(got))
	}
	if got := Select(recs, Filter{Target: "ipc=1.2"}); len(got) != 3 {
		t.Fatalf("target filter: %d, want 3", len(got))
	}
	if got := Select(recs, Filter{Since: base.Add(90 * time.Minute)}); len(got) != 3 {
		t.Fatalf("since filter: %d, want 3", len(got))
	}
	if got := Select(recs, Filter{Until: base.Add(30 * time.Minute)}); len(got) != 1 {
		t.Fatalf("until filter: %d, want 1", len(got))
	}
	if got := Select(recs, Filter{Limit: 3}); len(got) != 3 || got[0].ID != "job-2" {
		t.Fatalf("limit filter kept %+v, want most recent 3", got)
	}
	// A scenario's baseline is its first record in corpus order.
	if got := Select(recs, Filter{Scenario: "scen-b"}); got[0].ID != "job-2" {
		t.Fatalf("scen-b's first record is %s, want job-2", got[0].ID)
	}
}

// TestLoad: the corpus of a checkpoint directory is the record line of each
// job log in it, in corpus order; a log without one, another file and a
// subdirectory contribute nothing, and a missing directory is an error.
func TestLoad(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lines ...any) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, l := range lines {
			if err := enc.Encode(l); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	header := map[string]string{"type": "job.spec"}
	late, early := testRecord("job-2", "scen-a", 0.3), testRecord("job-10", "scen-a", 0.2)
	late.FinishedAt = late.FinishedAt.Add(time.Hour)
	write("job-2.jsonl", header, recordLine{TypeRecord, &late}, map[string]string{"type": "job.state", "state": "succeeded"})
	write("job-10.jsonl", header, recordLine{TypeRecord, &early})
	write("job-11.jsonl", header, map[string]string{"type": "job.state", "state": "failed"})
	write("job-12.json", recordLine{TypeRecord, &late})
	if err := os.Mkdir(filepath.Join(dir, "job-13.jsonl"), 0o755); err != nil {
		t.Fatal(err)
	}
	recs, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Record{early, late}; !reflect.DeepEqual(recs, want) {
		t.Fatalf("Load = %+v\nwant %+v", recs, want)
	}
	if _, err := Load(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("Load of a missing directory succeeded")
	}
}

func TestTrajectoryHash(t *testing.T) {
	a := TrajectoryHash([]float64{0.5, 0.25, 0.25})
	b := TrajectoryHash([]float64{0.5, 0.25, 0.25})
	if a == "" || a != b {
		t.Fatalf("identical series hashed %q vs %q", a, b)
	}
	if c := TrajectoryHash([]float64{0.5, 0.25, 0.250000001}); c == a {
		t.Fatal("different series collided")
	}
	// Bit-sensitive: +0 and -0 differ in representation, so they must differ.
	if TrajectoryHash([]float64{0}) == TrajectoryHash([]float64{math.Copysign(0, -1)}) {
		t.Fatal("trajectory hash is not bit-sensitive")
	}
	if TrajectoryHash(nil) != "" {
		t.Fatal("empty trajectory should hash to empty string")
	}
}

func TestTrend(t *testing.T) {
	errsIn := []float64{0.30, 0.20, 0.40}
	verdicts := []string{VerdictBaseline, "improved", VerdictRegressed}
	var recs []Record
	for i, e := range errsIn {
		rec := testRecord(fmt.Sprintf("job-%d", i), "scen-a", e)
		rec.WallSeconds = float64(10 + i)
		rec.Verdict = verdicts[i]
		recs = append(recs, rec)
	}
	// Another scenario's run, between them, starts a trend of its own.
	recs = slices.Insert(recs, 1, testRecord("job-9", "scen-b", 0.5))
	trends := Trends(recs)
	if len(trends) != 2 || trends[0].Scenario != "scen-a" || trends[1].Scenario != "scen-b" || trends[1].Runs != 1 {
		t.Fatalf("trends = %+v, want scen-a then scen-b of 1 run", trends)
	}
	tr := trends[0]
	if tr.Runs != 3 || len(tr.Points) != 3 {
		t.Fatalf("trend = %+v", tr)
	}
	if tr.BestError != 0.20 {
		t.Fatalf("best error = %g, want 0.20", tr.BestError)
	}
	if tr.MedianBestError != 0.30 {
		t.Fatalf("median best error = %g, want 0.30", tr.MedianBestError)
	}
	if tr.MedianWallSeconds != 11 {
		t.Fatalf("median wall = %g, want 11", tr.MedianWallSeconds)
	}
	if tr.Regressions != 1 {
		t.Fatalf("regressions = %d, want 1", tr.Regressions)
	}
	if tr.Points[2].Verdict != VerdictRegressed {
		t.Fatalf("points lost verdicts: %+v", tr.Points)
	}
	if empty := Trends(nil); len(empty) != 0 {
		t.Fatalf("trends of no records = %+v", empty)
	}
}

func TestHashJSONStable(t *testing.T) {
	type spec struct {
		A int               `json:"a"`
		B string            `json:"b"`
		M map[string]string `json:"m"`
	}
	h1, err := HashJSON(spec{A: 1, B: "x", M: map[string]string{"k1": "v1", "k2": "v2"}})
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := HashJSON(spec{A: 1, B: "x", M: map[string]string{"k2": "v2", "k1": "v1"}})
	if h1 != h2 {
		t.Fatalf("equal values hashed differently: %s vs %s", h1, h2)
	}
	if len(h1) != 16 {
		t.Fatalf("hash length = %d, want 16", len(h1))
	}
	h3, _ := HashJSON(spec{A: 2, B: "x"})
	if h3 == h1 {
		t.Fatal("different values collided")
	}
}

// FuzzCorpusLoad writes arbitrary bytes as a job log and loads the corpus of
// its directory, as `datamime-inspect corpus` does. Load must not panic, and
// the record it returns, if any, is that of one of the log's corpus.record
// lines. The seeds — a succeeded job's log, the same log torn inside its
// record line, a log with no record line, and a record line with a
// wrong-typed field — are files under testdata/fuzz/FuzzCorpusLoad.
func FuzzCorpusLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, log []byte) {
		if len(log) >= 1<<20 {
			t.Skip("log of 1 MiB or more")
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "job-1.jsonl"), log, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := Load(dir)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if len(recs) == 0 {
			return
		}
		got, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(log, []byte("\n")) {
			var l recordLine
			if json.Unmarshal(line, &l) != nil || l.Type != TypeRecord || l.Record == nil {
				continue
			}
			if want, _ := json.Marshal([]Record{*l.Record}); bytes.Equal(got, want) {
				return
			}
		}
		t.Fatalf("Load returned %s, which is no corpus.record line of the log", got)
	})
}
