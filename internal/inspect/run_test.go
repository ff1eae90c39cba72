package inspect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"datamime/internal/opt"
	"datamime/internal/telemetry"
)

// testArtifact builds a small deterministic artifact: a header, spans, six
// evals (one skipped, one cache hit) with EMD attribution on the last.
func testArtifact() string {
	var b strings.Builder
	write := func(format string, args ...interface{}) {
		fmt.Fprintf(&b, format+"\n", args...)
	}
	write(`{"type":"log","job":"job-1","msg":"datamime run artifact: state=done events=6"}`)
	write(`{"type":"span","job":"job-1","iter":0,"phase":"generate","dur_ns":2000000}`)
	write(`{"type":"span","job":"job-1","iter":0,"phase":"profile","dur_ns":8000000}`)
	errs := []float64{0.9, 0.7, 0.8, 0.4, 0.6}
	best := []float64{0.9, 0.7, 0.7, 0.4, 0.4}
	iter := 0
	for i := range errs {
		if i == 2 {
			write(`{"type":"eval","job":"job-1","iter":%d,"skipped":true,"msg":"generator failed"}`, iter)
			iter++
		}
		extra := ""
		if i == 1 {
			extra = `,"cache_hit":1`
		}
		if i == 3 { // the best eval carries the final attribution
			extra = `,"emd_cpu_util":0.25,"emd_l2_mpki":0.15`
		}
		write(`{"type":"eval","job":"job-1","iter":%d,"params":[0.%d,0.5],"attrs":{"error":%g,"best_error":%g,"phase_profile_ns":1000000%s}}`,
			iter, i, errs[i], best[i], extra)
		iter++
	}
	return b.String()
}

func TestLoadRunParsesArtifact(t *testing.T) {
	run, err := LoadRun(strings.NewReader(testArtifact()))
	if err != nil {
		t.Fatal(err)
	}
	if run.Job != "job-1" {
		t.Errorf("Job %q", run.Job)
	}
	if !strings.Contains(run.Header, "state=done") {
		t.Errorf("Header %q", run.Header)
	}
	if run.Malformed != 0 {
		t.Errorf("Malformed %d, want 0", run.Malformed)
	}
	if run.Spans != 2 || run.Phases["profile"].TotalNS != 8000000 {
		t.Errorf("Spans %d Phases %+v", run.Spans, run.Phases)
	}
	c := run.Counts()
	if c.Evals != 5 || c.Skipped != 1 || c.CacheHits != 1 {
		t.Errorf("Counts %+v", c)
	}
	bestRec, ok := run.Best()
	if !ok || bestRec.Error != 0.4 || bestRec.Iteration != 4 {
		t.Errorf("Best %+v ok=%v", bestRec, ok)
	}
	trace := run.BestTrace()
	want := []float64{0.9, 0.7, 0.7, 0.4, 0.4}
	if len(trace) != len(want) {
		t.Fatalf("trace %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Errorf("trace[%d] = %g, want %g", i, trace[i], want[i])
		}
	}
	if comps := bestRec.Components; comps["cpu_util"] != 0.25 || comps["l2_mpki"] != 0.15 {
		t.Errorf("best record components %v", comps)
	}
	if run.Evals[len(run.Evals)-1].PhaseNS["profile"] != 1000000 {
		t.Errorf("PhaseNS %v", run.Evals[len(run.Evals)-1].PhaseNS)
	}
}

// TestLoadRunTruncatedLine checks a mid-write-truncated trailing line (the
// dying-writer case) is skipped and counted, not fatal.
func TestLoadRunTruncatedLine(t *testing.T) {
	art := testArtifact()
	truncated := art + `{"type":"eval","job":"job-1","iter":9,"attrs":{"error":0.3,"bes`
	run, err := LoadRun(strings.NewReader(truncated))
	if err != nil {
		t.Fatalf("truncated artifact should load: %v", err)
	}
	if run.Malformed != 1 {
		t.Errorf("Malformed %d, want 1", run.Malformed)
	}
	if len(run.Evals) != 6 {
		t.Errorf("%d evals, want 6 (truncated line dropped)", len(run.Evals))
	}
}

// TestLoadRunRejectsBrokenEval: a well-formed JSON eval without best_error
// is a structural error, not truncation — it must fail loudly.
func TestLoadRunRejectsBrokenEval(t *testing.T) {
	art := `{"type":"eval","iter":0,"attrs":{"error":0.5}}` + "\n"
	if _, err := LoadRun(strings.NewReader(art)); err == nil {
		t.Fatal("want error for eval without best_error")
	} else if !strings.Contains(err.Error(), telemetry.AttrBestError) {
		t.Errorf("error %v should name the missing attribute", err)
	}
}

// TestLoadRunRejectsNonCountDiagnostics: a diagnostics event whose integer
// field is negative, fractional or past 2³¹ fails the load with the key in
// the error, where converting it would give whatever the architecture makes
// of it (amd64 read 1e300 as MinInt64, and the health verdict then skipped
// the calibration check). The largest count still loads, and so does
// gp_jitter_level, a key artifacts carried before the jitter-escalation
// level left the snapshot, whatever its value: no field reads it.
func TestLoadRunRejectsNonCountDiagnostics(t *testing.T) {
	for _, attr := range []string{
		`"gp_observations":1e300`,
		`"acq_candidates":-3`,
		`"gp_observations":12.5`,
		`"acq_candidates":2147483648`,
	} {
		art := `{"type":"search.diagnostics","iter":3,"attrs":{` + attr + `}}` + "\n"
		if _, err := LoadRun(strings.NewReader(art)); err == nil {
			t.Errorf("%s: loaded, want an error", attr)
		} else if key := strings.Split(attr, `"`)[1]; !strings.Contains(err.Error(), key) {
			t.Errorf("%s: error %v should name %s", attr, err, key)
		}
	}
	art := `{"type":"search.diagnostics","iter":3,"attrs":{"gp_observations":2147483647,"acq_candidates":0,"gp_jitter_level":1e300}}` + "\n"
	run, err := LoadRun(strings.NewReader(art))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := run.Diagnostics[0].Diagnostics, (opt.Diagnostics{Observations: 1<<31 - 1}); got != want {
		t.Errorf("decoded %+v, want %+v", got, want)
	}
}

// FuzzLoadRun feeds arbitrary bytes through LoadRun, the door every artifact
// comes in by. It must never panic, and every run it accepts must render:
// the report, its text and HTML views and its JSON summary, with no panic
// and no error.
func FuzzLoadRun(f *testing.F) {
	// The other seeds — testdata/run.jsonl, a truncated tail, an unknown
	// event type, an eval without best_error, a span that ends before it
	// began by the epoch — are files under testdata/fuzz/FuzzLoadRun.
	f.Add([]byte(testArtifact()))
	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := LoadRun(bytes.NewReader(data))
		if err != nil {
			return
		}
		r := NewReport(run, nil, "")
		if err := r.RenderText(io.Discard); err != nil {
			t.Fatalf("RenderText: %v", err)
		}
		if err := r.RenderHTML(io.Discard); err != nil {
			t.Fatalf("RenderHTML: %v", err)
		}
		if _, err := json.Marshal(NewRunSummary(r)); err != nil {
			t.Fatalf("summary: %v", err)
		}
	})
}
