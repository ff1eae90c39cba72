package inspect

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"datamime/internal/opt"
	"datamime/internal/telemetry"
)

// healthyRecords builds n well-calibrated snapshots with a still-informative
// acquisition surface.
func healthyRecords(n int) []DiagRecord {
	recs := make([]DiagRecord, n)
	for i := range recs {
		recs[i] = DiagRecord{Iter: 6 + i, Diagnostics: opt.Diagnostics{
			LengthScale:  0.4,
			NoiseFrac:    1e-3,
			SignalVar:    1.0,
			LogMarginal:  -10 + float64(i),
			Observations: 6 + i,
			Condition:    1e4,
			LOORMSE:      0.1,
			LOOMaxZ:      1.8,
			Coverage1:    0.70,
			Coverage2:    0.95,
			Candidates:   512,
			ChosenEI:     0.5 - 0.02*float64(i),
			PoolMeanEI:   0.1,
			ExploitEI:    0.3,
			ExploreEI:    0.1,
		}}
	}
	return recs
}

func healthOf(recs []DiagRecord) *SearchHealth {
	return NewSearchHealth(&Run{Diagnostics: recs})
}

func TestSearchHealthVerdicts(t *testing.T) {
	if NewSearchHealth(&Run{}) != nil {
		t.Fatal("SearchHealth from a run without diagnostics, want nil")
	}

	if h := healthOf(healthyRecords(10)); !h.Healthy {
		t.Fatalf("healthy records flagged: %v", h.Verdicts)
	}

	// Overconfident: LOO coverage far below nominal with enough observations.
	over := healthyRecords(10)
	for i := range over {
		over[i].Coverage1 = 0.3
		over[i].Coverage2 = 0.6
	}
	h := healthOf(over)
	if h.Healthy || !strings.Contains(h.VerdictLine(), "overconfident") {
		t.Fatalf("overconfident records not flagged: %q", h.VerdictLine())
	}

	// Too few observations to judge calibration: the same coverages pass.
	for i := range over {
		over[i].Observations = 5
	}
	if h := healthOf(over); !h.Healthy {
		t.Fatalf("calibration judged on too few observations: %v", h.Verdicts)
	}

	// Stagnating: the acquisition gap collapses to ~0 of its peak.
	stale := healthyRecords(10)
	for i := range stale {
		stale[i].ChosenEI = 0.5
		if i >= 5 {
			stale[i].ChosenEI = 0.1001
		}
		stale[i].PoolMeanEI = 0.1
	}
	h = healthOf(stale)
	if h.Healthy || !strings.Contains(h.VerdictLine(), "stagnating") {
		t.Fatalf("collapsed acquisition gap not flagged: %q", h.VerdictLine())
	}
}

func TestSimpleRegret(t *testing.T) {
	got := SimpleRegret([]float64{0.9, 0.5, 0.2})
	want := []float64{0.7, 0.3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SimpleRegret = %v, want %v", got, want)
		}
	}
	if SimpleRegret(nil) != nil {
		t.Fatal("SimpleRegret(nil) != nil")
	}
}

// TestHealthRendersInReports: a run with diagnostics renders the search
// health section in both text and HTML, and the -json summary carries the
// diagnostics block.
func TestHealthRendersInReports(t *testing.T) {
	var artifact strings.Builder
	artifact.WriteString(testArtifact())
	events := []telemetry.Event{
		{Type: telemetry.TypeSearchDiagnostics, Job: "job-1", Iter: 4, Attrs: opt.Diagnostics{
			LengthScale: 0.4, NoiseFrac: 1e-3, LogMarginal: -12.5, Observations: 9,
			Condition: 1e4, LOORMSE: 0.12, LOOMaxZ: 1.6, Coverage1: 0.67,
			Coverage2: 0.95, Candidates: 512, ChosenEI: 0.4, PoolMeanEI: 0.1,
			ExploitEI: 0.3, ExploreEI: 0.1,
		}.Attrs()},
	}
	if err := telemetry.WriteJSONL(&artifact, events); err != nil {
		t.Fatal(err)
	}
	run, err := LoadRun(strings.NewReader(artifact.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Diagnostics) != 1 || run.Diagnostics[0].Observations != 9 {
		t.Fatalf("diagnostics not parsed: %+v", run.Diagnostics)
	}

	report := NewReport(run, nil, "")
	var text bytes.Buffer
	if err := report.RenderText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "search health (1 GP diagnostics snapshots)") {
		t.Fatalf("text report lacks search health section:\n%s", text.String())
	}
	var html bytes.Buffer
	if err := report.RenderHTML(&html); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(html.String(), "<h2>Search health</h2>") {
		t.Fatal("HTML report lacks the Search health section")
	}

	s := NewRunSummary(report)
	if s.Diagnostics == nil || s.Diagnostics.Snapshots != 1 {
		t.Fatalf("summary diagnostics = %+v, want 1 snapshot", s.Diagnostics)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"diagnostics"`) {
		t.Fatal("summary JSON lacks the diagnostics block")
	}
}

// TestNewDiagRecordMatchesEventRecord: a snapshot on a trace record and the
// same snapshot decoded from its search.diagnostics artifact event must be
// identical records, or a job's status trace and its artifact would disagree.
func TestNewDiagRecordMatchesEventRecord(t *testing.T) {
	d := opt.Diagnostics{
		LengthScale: 0.2, NoiseFrac: 1e-2, SignalVar: 2.5, LogMarginal: -7.5,
		Observations: 11, Condition: 3e6, LOORMSE: 0.2,
		LOOMaxZ: 2.2, Coverage1: 0.6, Coverage2: 0.9, Candidates: 512,
		ChosenEI: 0.33, PoolMeanEI: 0.05, ExploitEI: 0.25, ExploreEI: 0.08,
	}
	fromTrace := DiagRecord{Iter: 7, Diagnostics: d}
	run, err := NewRun([]telemetry.Event{
		{Type: telemetry.TypeSearchDiagnostics, Iter: 7, Attrs: d.Attrs()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Diagnostics) != 1 || run.Diagnostics[0] != fromTrace {
		t.Fatalf("constructors disagree:\ntrace %+v\nevent %+v", fromTrace, run.Diagnostics)
	}
}

// TestLoadRunUnknownEventRoundTrip: artifacts carrying event types this build
// does not know survive a parse + re-encode byte-identically — forward
// compatibility for artifacts produced by newer coordinators — and LoadRun
// neither fails on them nor miscounts them as malformed.
func TestLoadRunUnknownEventRoundTrip(t *testing.T) {
	events := []telemetry.Event{
		{Type: telemetry.TypeLog, Job: "job-9", Msg: "header"},
		{Type: "future.frobnicate", Job: "job-9", Iter: 3, Msg: "novel",
			Attrs: map[string]float64{"zeta": 1.5, "alpha": -2}},
		{Type: telemetry.TypeEval, Job: "job-9", Iter: 0, Params: []float64{0.5},
			Attrs: map[string]float64{telemetry.AttrError: 0.4, telemetry.AttrBestError: 0.4}},
		{Type: "another.unknown", Job: "job-9", TimeNS: 12345},
	}
	var a bytes.Buffer
	if err := telemetry.WriteJSONL(&a, events); err != nil {
		t.Fatal(err)
	}

	run, err := LoadRun(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if run.Malformed != 0 {
		t.Fatalf("unknown event types counted as malformed: %d", run.Malformed)
	}
	if len(run.Evals) != 1 || run.Header != "header" {
		t.Fatalf("known events not parsed around unknown ones: evals=%d header=%q",
			len(run.Evals), run.Header)
	}

	// Decode every line back into the Event schema and re-encode: the bytes
	// must match, so passing an artifact through a parse/re-ship hop (corpus
	// storage, report services) cannot corrupt events it doesn't understand.
	var decoded []telemetry.Event
	sc := bufio.NewScanner(bytes.NewReader(a.Bytes()))
	for sc.Scan() {
		var ev telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("decoding %q: %v", sc.Text(), err)
		}
		decoded = append(decoded, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := telemetry.WriteJSONL(&b, decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("round trip not byte-identical:\na: %s\nb: %s", a.String(), b.String())
	}
}
