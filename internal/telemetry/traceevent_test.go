package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// traceFixture builds a small event stream exercising every track type: two
// overlapping eval-lane profiles, two workers with overlapping sim runs on
// worker 0 (forcing an overflow lane), a budget wait, a GP fit with a
// refactorization, and eval instants including a cache hit.
func traceFixture() []Event {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	span := func(phase string, iter int, start, end int64, attrs map[string]float64) Event {
		return Event{Type: TypeSpan, Phase: phase, Iter: iter,
			TimeNS: ms(end), DurNS: ms(end - start), Attrs: attrs}
	}
	return []Event{
		span(PhaseProfile, 0, 0, 30, nil),
		span(PhaseProfile, 1, 10, 40, nil), // overlaps → second eval lane
		span(PhaseSimRun, 0, 0, 10, map[string]float64{AttrWorker: 0, AttrLanes: 4}),
		span(PhaseSimRun, 0, 5, 15, map[string]float64{AttrWorker: 0, AttrLanes: 8}), // overlap on worker 0 → overflow lane
		span(PhaseSimRun, 1, 12, 22, map[string]float64{AttrWorker: 1, AttrLanes: 4}),
		span(PhaseBudgetWait, 1, 11, 12, map[string]float64{AttrWorker: 1}),
		span(PhaseGPFit, 2, 41, 43, map[string]float64{
			AttrCholeskyAppends: 3, AttrCholeskyRebuilds: 1}),
		span(PhaseAcquisition, 2, 43, 45, nil),
		{Type: TypeEval, Iter: 0, TimeNS: ms(31),
			Attrs: map[string]float64{AttrError: 0.5, AttrBestError: 0.5}},
		{Type: TypeEval, Iter: 1, TimeNS: ms(41),
			Attrs: map[string]float64{AttrError: 0.4, AttrBestError: 0.4, AttrCacheHit: 1}},
	}
}

func TestWriteTraceValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, traceFixture()); err != nil {
		t.Fatal(err)
	}
	st, err := ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Tracks: search, optimizer, eval lane 0+1, worker 0, worker 0 (+1),
	// worker 1.
	if st.Tracks != 7 {
		t.Errorf("Tracks = %d, want 7", st.Tracks)
	}
	if st.WorkerTracks != 2 {
		t.Errorf("WorkerTracks = %d, want 2 (overflow lanes excluded)", st.WorkerTracks)
	}
	// Spans: 2 profile + 3 sim + gp_fit + acquisition (budget.wait renders
	// as an instant). Instants: 2 evals + cache hit + budget wait +
	// cholesky refactorization.
	if st.Spans != 7 {
		t.Errorf("Spans = %d, want 7", st.Spans)
	}
	if st.Instants != 5 {
		t.Errorf("Instants = %d, want 5", st.Instants)
	}
	out := buf.String()
	for _, want := range []string{
		`"eval lane 1"`, `"worker 0 (+1)"`, `"cache hit"`, `"budget wait"`,
		`"cholesky refactorization"`, `"displayTimeUnit":"ms"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace JSON missing %s", want)
		}
	}
}

func TestWriteTraceDropsUnstampedEvents(t *testing.T) {
	var buf bytes.Buffer
	events := []Event{
		{Type: TypeEval, Iter: 0}, // synthesized from a checkpoint: no TimeNS
		{Type: TypeLog, Msg: "header"},
	}
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	st, err := ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Spans != 0 || st.Instants != 0 {
		t.Errorf("unstamped events leaked into the trace: %+v", st)
	}
	// The lost eval is counted, not silent: the exporter records it in the
	// trace metadata and the validator reads it back. The header line is not
	// a loss, since the timeline never draws a log event.
	if st.DroppedUnstamped != 1 {
		t.Errorf("DroppedUnstamped = %d, want 1", st.DroppedUnstamped)
	}
	if !strings.Contains(buf.String(), `"dropped_unstamped":1`) {
		t.Error("trace metadata missing the dropped_unstamped count")
	}
}

// TestWriteTraceFleetProcesses: spans tagged with the fleet-worker attribute
// render as separate Perfetto processes — per-worker sim tracks, eval lanes,
// and budget-wait instants — while untagged spans stay on the coordinator's
// pid.
func TestWriteTraceFleetProcesses(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	fleet := func(fw float64, extra map[string]float64) map[string]float64 {
		attrs := map[string]float64{AttrFleetWorker: fw}
		for k, v := range extra {
			attrs[k] = v
		}
		return attrs
	}
	events := []Event{
		// Coordinator-local sim span: stays on pid 1.
		{Type: TypeSpan, Phase: PhaseSimRun, TimeNS: ms(10), DurNS: ms(10),
			Attrs: map[string]float64{AttrWorker: 0}},
		// Fleet worker 1: two sim lanes, a budget wait, and a legacy
		// profile.run span, which logs written before a profile was one
		// profile.sim span still carry.
		{Type: TypeSpan, Phase: PhaseSimRun, Iter: 3, TimeNS: ms(20), DurNS: ms(8),
			Attrs: fleet(1, map[string]float64{AttrWorker: 0})},
		{Type: TypeSpan, Phase: PhaseSimRun, Iter: 3, TimeNS: ms(21), DurNS: ms(8),
			Attrs: fleet(1, map[string]float64{AttrWorker: 1})},
		{Type: TypeSpan, Phase: PhaseBudgetWait, Iter: 3, TimeNS: ms(13), DurNS: ms(1),
			Attrs: fleet(1, map[string]float64{AttrWorker: 2})},
		{Type: TypeSpan, Phase: "profile.run", Iter: 3, TimeNS: ms(22), DurNS: ms(10),
			Attrs: fleet(1, nil)},
		// Dispatcher fallback (-1): its shipped spans get their own process.
		{Type: TypeSpan, Phase: PhaseSimRun, Iter: 4, TimeNS: ms(30), DurNS: ms(5),
			Attrs: fleet(-1, map[string]float64{AttrWorker: 0})},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	st, err := ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Processes != 3 {
		t.Errorf("Processes = %d, want 3 (datamime + fleet worker 1 + fleet fallback)", st.Processes)
	}
	if st.FleetProcesses != 2 {
		t.Errorf("FleetProcesses = %d, want 2", st.FleetProcesses)
	}
	// 4 fleet-routed spans + 1 local sim + 1 legacy run span = 5 "X"
	// (budget wait renders as an instant).
	if st.Spans != 5 {
		t.Errorf("Spans = %d, want 5", st.Spans)
	}
	out := buf.String()
	for _, want := range []string{
		`"fleet worker 1"`, `"fleet fallback"`, `"budget wait"`, `"profile.run"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace JSON missing %s", want)
		}
	}
}

// TestWriteTraceNamesWaitOnlyTrack: an artifact read while a slot runs its
// first profile holds that slot's budget wait and not yet its profile.sim
// span. The coordinator names the wait's track as a fleet worker's process
// does, so the prefix validates either way.
func TestWriteTraceNamesWaitOnlyTrack(t *testing.T) {
	for _, attrs := range []map[string]float64{
		{AttrWorker: 0},
		{AttrWorker: 0, AttrFleetWorker: 1},
	} {
		events := []Event{
			{Type: TypeLog, Msg: "header"},
			{Type: TypeSpan, Phase: PhaseBudgetWait, TimeNS: 5_000_000, DurNS: 2_000, Attrs: attrs},
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, events); err != nil {
			t.Fatal(err)
		}
		st, err := ValidateTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("attrs %v: %v", attrs, err)
		}
		if st.Instants != 1 || st.WorkerTracks != 1 {
			t.Errorf("attrs %v: stats %+v, want one budget wait on one worker track", attrs, st)
		}
	}
}

func TestWriteTraceTimestampsRelativeToBase(t *testing.T) {
	var buf bytes.Buffer
	events := []Event{
		{Type: TypeSpan, Phase: PhaseProfile, TimeNS: 5_000_000, DurNS: 2_000_000},
	}
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	for _, ev := range tf.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		if ev.TS != 0 {
			t.Errorf("span ts = %g µs, want 0 (relative to earliest start)", ev.TS)
		}
		if ev.Dur != 2000 {
			t.Errorf("span dur = %g µs, want 2000", ev.Dur)
		}
	}
}

func TestAssignLanesGreedyColoring(t *testing.T) {
	ivs := []spanInterval{
		{start: 0, end: 10},
		{start: 5, end: 15},  // overlaps lane 0 → lane 1
		{start: 10, end: 20}, // lane 0 free again
		{start: 12, end: 14}, // both lanes busy → lane 2
	}
	lanes := assignLanes(ivs)
	want := []int{0, 1, 0, 2}
	for i := range want {
		if lanes[i] != want[i] {
			t.Errorf("lanes = %v, want %v", lanes, want)
			break
		}
	}
}

func TestValidateTraceRejectsUnnamedTrack(t *testing.T) {
	raw := `{"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":42,"ts":0,"dur":1}],"displayTimeUnit":"ms"}`
	if _, err := ValidateTrace(strings.NewReader(raw)); err == nil {
		t.Fatal("trace with an unnamed track validated")
	}
}

func BenchmarkTraceExport(b *testing.B) {
	// A realistic mid-size run: 200 iterations with per-candidate phase
	// spans, two workers' sim runs, and eval instants.
	var events []Event
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	for i := 0; i < 200; i++ {
		t0 := int64(i) * 50
		events = append(events,
			Event{Type: TypeSpan, Phase: PhaseGenerate, Iter: i, TimeNS: ms(t0 + 5), DurNS: ms(5)},
			Event{Type: TypeSpan, Phase: PhaseProfile, Iter: i, TimeNS: ms(t0 + 45), DurNS: ms(40)},
			Event{Type: TypeSpan, Phase: PhaseSimRun, Iter: i, TimeNS: ms(t0 + 25), DurNS: ms(18),
				Attrs: map[string]float64{AttrWorker: float64(i % 2), AttrLanes: 4}},
			Event{Type: TypeSpan, Phase: PhaseSimRun, Iter: i, TimeNS: ms(t0 + 44), DurNS: ms(18),
				Attrs: map[string]float64{AttrWorker: float64((i + 1) % 2), AttrLanes: 8}},
			Event{Type: TypeEval, Iter: i, TimeNS: ms(t0 + 46),
				Attrs: map[string]float64{AttrError: 0.5, AttrBestError: 0.5}},
		)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, events); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteTraceFleetTrackIsChurn: the "fleet" track carries fleet churn
// only. A dispatched run whose evaluations retried and fell back, but whose
// fleet never changed, has no fleet track; a worker registration adds one.
func TestWriteTraceFleetTrackIsChurn(t *testing.T) {
	ms := int64(time.Millisecond)
	routed := []Event{
		{Type: TypeSpan, Phase: PhaseRemoteEval, DurNS: ms, TimeNS: 2 * ms,
			Attrs: map[string]float64{AttrRemoteWorker: 0, AttrRetries: 1, AttrRemote: 1}},
		{Type: TypeSpan, Phase: PhaseRemoteEval, DurNS: ms, TimeNS: 3 * ms,
			Attrs: map[string]float64{AttrRemoteWorker: -1, AttrRetries: 2}},
	}
	hasFleetTrack := func(events []Event) bool {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteTrace(&buf, events); err != nil {
			t.Fatal(err)
		}
		if _, err := ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
			t.Fatal(err)
		}
		for _, ev := range tf.TraceEvents {
			if ev.Name == "thread_name" && ev.TID == traceTIDFleet {
				return true
			}
		}
		return false
	}
	if hasFleetTrack(routed) {
		t.Error("retries and fallbacks without churn produced a fleet track")
	}
	churn := append(routed, Event{Type: TypeSpan, Phase: PhaseWorkerRegister, TimeNS: 4 * ms,
		Attrs: map[string]float64{AttrRemoteWorker: 1}})
	if !hasFleetTrack(churn) {
		t.Error("a worker registration produced no fleet track")
	}
}
