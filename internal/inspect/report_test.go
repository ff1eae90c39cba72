package inspect

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func testReport(t *testing.T) *Report {
	t.Helper()
	run := loadTestRun(t, testArtifact())
	target, best := testProfilePair()
	doc := &ProfilesDoc{Job: "job-1", Target: target, Best: best}
	return NewReport(run, doc, "")
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/inspect -update` to create goldens)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (re-run with -update if intended)\n--- got ---\n%s", name, got)
	}
}

// TestRenderTextGolden locks the terminal report byte for byte.
func TestRenderTextGolden(t *testing.T) {
	r := testReport(t)
	var a, b bytes.Buffer
	if err := r.RenderText(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.RenderText(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("RenderText is not deterministic across invocations")
	}
	checkGolden(t, "report.txt", a.Bytes())
}

// TestRenderHTMLGolden locks the HTML report byte for byte and checks the
// self-containment and content requirements.
func TestRenderHTMLGolden(t *testing.T) {
	r := testReport(t)
	var a, b bytes.Buffer
	if err := r.RenderHTML(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.RenderHTML(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("RenderHTML is not deterministic across invocations")
	}
	html := a.String()
	for _, want := range []string{
		"<svg",              // inline plots
		"Error attribution", // ranked table
		"cpu_util",          // per-metric overlays
		"class=\"target\"",  // target series
		"class=\"best\"",    // best series
		"P(X ≤ x)",          // eCDF axis
	} {
		if !strings.Contains(html, want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
	for _, banned := range []string{"<script", "http://", "https://", "src="} {
		if strings.Contains(html, banned) {
			t.Errorf("HTML report must be self-contained; found %q", banned)
		}
	}
	checkGolden(t, "report.html", a.Bytes())
}

// TestFixtureJSONGoldens locks the two machine-readable outputs —
// `report -json` and `report -diagnostics` — byte for byte on
// testdata/run.jsonl, a real seeded 16-iteration mem-fb artifact (timed
// spans from a 2-worker sweep, four search.diagnostics snapshots).
func TestFixtureJSONGoldens(t *testing.T) {
	run, err := LoadRunFile(filepath.Join("testdata", "run.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewReport(run, nil, "")
	var summary bytes.Buffer
	if err := NewRunSummary(r).WriteJSON(&summary); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "run.summary.json", summary.Bytes())

	var diag bytes.Buffer
	enc := json.NewEncoder(&diag)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Health); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "run.diagnostics.json", diag.Bytes())
}

// TestReportWithoutProfiles: the renderer degrades to artifact totals when
// no profile pair is available.
func TestReportWithoutProfiles(t *testing.T) {
	run := loadTestRun(t, testArtifact())
	r := NewReport(run, nil, "fallback")
	if len(r.Attribution) != 2 {
		t.Fatalf("attribution %+v", r.Attribution)
	}
	if r.Attribution[0].Component != "cpu_util" || len(r.Attribution[0].Bands) != 0 {
		t.Errorf("fallback attribution %+v", r.Attribution[0])
	}
	var text, html bytes.Buffer
	if err := r.RenderText(&text); err != nil {
		t.Fatal(err)
	}
	if err := r.RenderHTML(&html); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "no profile pair available") {
		t.Errorf("terminal fallback note missing:\n%s", text.String())
	}
	if !strings.Contains(html.String(), "cpu_util") {
		t.Error("HTML fallback should still list components")
	}
}

// TestProfilesDocRoundTrip checks encode/decode stability.
func TestProfilesDocRoundTrip(t *testing.T) {
	target, best := testProfilePair()
	doc := &ProfilesDoc{Job: "j", Components: map[string]float64{"cpu_util": 0.2}, Target: target, Best: best}
	data, err := doc.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeProfilesDoc(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Complete() || back.Job != "j" || back.Components["cpu_util"] != 0.2 {
		t.Errorf("round trip lost data: %+v", back)
	}
	var nilDoc *ProfilesDoc
	if nilDoc.Complete() {
		t.Error("nil doc must not be complete")
	}
}
