package corpus

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

func TestCorpusAddAndReload(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	artifact := []byte(`{"type":"log","msg":"hello"}` + "\n")
	rec, err := c.Add(testRecord("job-1", "scen-a", 0.25), artifact)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ArtifactSHA == "" {
		t.Fatal("Add did not content-address the artifact")
	}
	got, err := c.Artifact(rec)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(artifact) {
		t.Fatalf("artifact round trip: got %q want %q", got, artifact)
	}
	// Same artifact bytes dedupe to the same content address.
	rec2, err := c.Add(testRecord("job-2", "scen-a", 0.25), artifact)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.ArtifactSHA != rec.ArtifactSHA {
		t.Fatalf("identical artifacts got different addresses: %s vs %s", rec2.ArtifactSHA, rec.ArtifactSHA)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: both records survive, in order.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	recs := c2.Records()
	if len(recs) != 2 || recs[0].ID != "job-1" || recs[1].ID != "job-2" {
		t.Fatalf("reloaded records = %+v", recs)
	}
	if c2.Malformed() != 0 || c2.Compacted() {
		t.Fatalf("clean index reported malformed=%d compacted=%v", c2.Malformed(), c2.Compacted())
	}
}

func TestCorpusToleratesTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Add(testRecord(fmt.Sprintf("job-%d", i), "scen-a", 0.2), nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	// Simulate a crash mid-append: chop the last line in half.
	idx := filepath.Join(dir, "index.jsonl")
	b, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(idx, b[:len(b)-20], 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 2 {
		t.Fatalf("got %d records after truncated tail, want 2", c2.Len())
	}
	if c2.Malformed() != 1 {
		t.Fatalf("malformed = %d, want 1", c2.Malformed())
	}
	if !c2.Compacted() {
		t.Fatal("dirty index was not compacted on open")
	}
	// The compacted file must parse cleanly line by line.
	b, err = os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("compacted index has unparseable line %q: %v", line, err)
		}
	}
	// Appends after compaction still work and survive another reopen.
	if _, err := c2.Add(testRecord("job-3", "scen-a", 0.19), nil); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	c3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if c3.Len() != 3 || c3.Malformed() != 0 {
		t.Fatalf("after repair+append: len=%d malformed=%d", c3.Len(), c3.Malformed())
	}
}

func TestCorpusConcurrentAdds(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			artifact := []byte(fmt.Sprintf(`{"type":"log","msg":"run %d"}`+"\n", i))
			if _, err := c.Add(testRecord(fmt.Sprintf("job-%02d", i), "scen-a", 0.2), artifact); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if c.Len() != n {
		t.Fatalf("len = %d, want %d", c.Len(), n)
	}
	c.Close()

	// Every line must be whole: reopen and require zero malformed.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != n || c2.Malformed() != 0 {
		t.Fatalf("after concurrent adds: len=%d malformed=%d, want %d/0", c2.Len(), c2.Malformed(), n)
	}
	for i := 0; i < n; i++ {
		rec, ok := c2.Find(fmt.Sprintf("job-%02d", i))
		if !ok {
			t.Fatalf("job-%02d missing after reopen", i)
		}
		if rec.ArtifactSHA == "" {
			t.Fatalf("job-%02d lost its artifact address", i)
		}
		if _, err := c2.Artifact(rec); err != nil {
			t.Fatalf("job-%02d artifact unreadable: %v", i, err)
		}
	}
}

func TestCorpusCompactDedupes(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(testRecord("job-1", "scen-a", 0.3), nil); err != nil {
		t.Fatal(err)
	}
	upd := testRecord("job-1", "scen-a", 0.21)
	if _, err := c.Add(upd, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(testRecord("job-2", "scen-a", 0.5), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	recs := c.Records()
	if len(recs) != 2 {
		t.Fatalf("after compact: %d records, want 2", len(recs))
	}
	if recs[0].ID != "job-1" || recs[0].BestError != 0.21 {
		t.Fatalf("compact kept %+v, want latest job-1", recs[0])
	}
	// Appends still work after Compact reopened the handle.
	if _, err := c.Add(testRecord("job-3", "scen-b", 0.1), nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 3 || c2.Malformed() != 0 {
		t.Fatalf("after compact+append reopen: len=%d malformed=%d", c2.Len(), c2.Malformed())
	}
}

func TestCorpusSelectAndBaseline(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 4; i++ {
		rec := testRecord(fmt.Sprintf("job-%d", i), "scen-a", 0.2)
		if i >= 2 {
			rec.Scenario = "scen-b"
			rec.Target = "ipc=1.2"
		}
		rec.FinishedAt = base.Add(time.Duration(i) * time.Hour)
		if _, err := c.Add(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Select(Filter{Scenario: "scen-a"}); len(got) != 2 {
		t.Fatalf("scenario filter: %d, want 2", len(got))
	}
	if got := c.Select(Filter{Target: "ipc=1.2"}); len(got) != 2 {
		t.Fatalf("target filter: %d, want 2", len(got))
	}
	if got := c.Select(Filter{Since: base.Add(90 * time.Minute)}); len(got) != 2 {
		t.Fatalf("since filter: %d, want 2", len(got))
	}
	if got := c.Select(Filter{Until: base.Add(30 * time.Minute)}); len(got) != 1 {
		t.Fatalf("until filter: %d, want 1", len(got))
	}
	if got := c.Select(Filter{Limit: 3}); len(got) != 3 || got[0].ID != "job-1" {
		t.Fatalf("limit filter kept %+v, want most recent 3", got)
	}
	bl, ok := c.Baseline("scen-a", "job-1")
	if !ok || bl.ID != "job-0" {
		t.Fatalf("baseline(scen-a) = %+v ok=%v, want job-0", bl, ok)
	}
	// The run being assessed never baselines itself.
	bl, ok = c.Baseline("scen-a", "job-0")
	if !ok || bl.ID != "job-1" {
		t.Fatalf("baseline excluding job-0 = %+v ok=%v, want job-1", bl, ok)
	}
	if _, ok := c.Baseline("scen-missing", ""); ok {
		t.Fatal("baseline for unknown scenario should not exist")
	}
	if sc := c.Scenarios(); len(sc) != 2 || sc[0] != "scen-a" || sc[1] != "scen-b" {
		t.Fatalf("scenarios = %v", sc)
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
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errsIn := []float64{0.30, 0.20, 0.40}
	verdicts := []string{VerdictBaseline, "improved", VerdictRegressed}
	for i, e := range errsIn {
		rec := testRecord(fmt.Sprintf("job-%d", i), "scen-a", e)
		rec.WallSeconds = float64(10 + i)
		rec.Verdict = verdicts[i]
		if _, err := c.Add(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	tr := c.Trend("scen-a")
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
	if empty := c.Trend("scen-none"); empty.Runs != 0 || len(empty.Points) != 0 {
		t.Fatalf("empty trend = %+v", empty)
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

// FuzzCorpusOpen writes arbitrary bytes as the index and opens the corpus,
// the recovery path every restart takes. Open must neither panic nor fail;
// every record it keeps has a non-empty, unique ID; and what it keeps is
// settled: reopening finds the same records in a clean index, nothing left to
// compact or drop.
func FuzzCorpusOpen(f *testing.F) {
	// The seeds — a clean two-record index, a truncated tail, a duplicate ID,
	// a blank line, a record followed by trailing garbage — are files under
	// testdata/fuzz/FuzzCorpusOpen.
	f.Fuzz(func(t *testing.T, index []byte) {
		if len(index) >= 1<<20 {
			t.Skip("index of 1 MiB or more")
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "index.jsonl"), index, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		recs := c.Records()
		c.Close()
		seen := make(map[string]bool, len(recs))
		for _, rec := range recs {
			if rec.ID == "" || seen[rec.ID] {
				t.Fatalf("kept record with empty or repeated ID %q", rec.ID)
			}
			seen[rec.ID] = true
		}

		c2, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer c2.Close()
		if c2.Compacted() || c2.Malformed() != 0 {
			t.Fatalf("reopen compacted=%v malformed=%d, want a clean index", c2.Compacted(), c2.Malformed())
		}
		// Records compare by encoding: a parsed zone offset is a fresh
		// *time.Location each time, which DeepEqual would call a change.
		want, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(c2.Records())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("reopen changed the records:\n%s\nwant\n%s", got, want)
		}
	})
}
