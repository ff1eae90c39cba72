package inspect

import (
	"strings"
	"testing"

	"datamime/internal/telemetry"
)

// remoteEvalRun builds a Run whose artifact carries eval.remote round trips
// with worker-reported durations: one with normal positive overhead and one
// whose worker-side time exceeds the measured round trip, which a recorded
// run cannot produce (the worker's time lies inside the round trip) but a
// hand-edited artifact can.
func remoteEvalRun(t *testing.T) *Run {
	t.Helper()
	artifact := `{"type":"log","job":"job-1","time_ns":1000,"msg":"datamime run artifact"}
{"type":"span","job":"job-1","iter":0,"phase":"profile.sim","dur_ns":500000,"time_ns":1800000,"attrs":{"worker":0,"ways":8}}
{"type":"span","job":"job-1","iter":0,"phase":"eval.remote","dur_ns":1000000,"time_ns":2000000,"attrs":{"remote_worker":0,"worker_ns":600000}}
{"type":"span","job":"job-1","iter":1,"phase":"eval.remote","dur_ns":500000,"time_ns":3000000,"attrs":{"remote_worker":0,"worker_ns":900000}}
{"type":"eval","job":"job-1","iter":0,"time_ns":2100000,"params":[0.5],"attrs":{"error":0.4,"best_error":0.4}}
{"type":"eval","job":"job-1","iter":1,"time_ns":3100000,"params":[0.6],"attrs":{"error":0.3,"best_error":0.3}}
`
	run, err := LoadRun(strings.NewReader(artifact))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestTimelineClampsNegativeDispatchOverhead(t *testing.T) {
	tl := NewTimeline(remoteEvalRun(t))
	if tl.DispatchOverheadSamples != 2 {
		t.Fatalf("samples = %d, want 2", tl.DispatchOverheadSamples)
	}
	// Round trip 1ms, worker 0.6ms → 0.4ms overhead. Round trip 0.5ms,
	// worker 0.9ms → negative, adds nothing: the sum must stay at 0.4ms
	// instead of collapsing to 0.
	if tl.DispatchOverheadNS != 400000 {
		t.Fatalf("overhead = %d ns, want 400000", tl.DispatchOverheadNS)
	}
}

// TestTimelineNoClampNote: the overhead line reads without a footnote — its
// sum and sample count, nothing about clocks.
func TestTimelineNoClampNote(t *testing.T) {
	artifact := `{"type":"log","job":"job-1","time_ns":1000,"msg":"datamime run artifact"}
{"type":"span","job":"job-1","iter":0,"phase":"profile.sim","dur_ns":500000,"time_ns":1800000,"attrs":{"worker":0,"ways":8}}
{"type":"span","job":"job-1","iter":0,"phase":"eval.remote","dur_ns":1000000,"time_ns":2000000,"attrs":{"remote_worker":0,"worker_ns":600000}}
{"type":"eval","job":"job-1","iter":0,"time_ns":2100000,"params":[0.5],"attrs":{"error":0.4,"best_error":0.4}}
`
	run, err := LoadRun(strings.NewReader(artifact))
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTimeline(run)
	if tl.DispatchOverheadSamples != 1 {
		t.Fatalf("samples = %d, want 1", tl.DispatchOverheadSamples)
	}
	var b strings.Builder
	if err := tl.RenderText(&b); err != nil {
		t.Fatal(err)
	}
	const want = "dispatch overhead (round trip minus worker eval time): 0.400ms over 1 samples\n"
	if text := b.String(); !strings.Contains(text, want) || strings.Contains(text, "clamped") {
		t.Fatalf("RenderText does not print %q alone:\n%s", want, text)
	}
}

// TestTimelineRoutingFromEvalRemote: a dispatched evaluation's eval.remote
// span is its one routing record, so NewTimeline counts a retry for every
// span with retries > 0 and a fallback for those with remote == 0 too — and
// gives the same counts on older artifacts that also carry the
// dispatch.retry / dispatch.fallback instants once written beside the span.
func TestTimelineRoutingFromEvalRemote(t *testing.T) {
	rows := []struct {
		name                string
		worker, retries     float64
		remote              bool
		wantRetried, wantFB int
	}{
		{"remote, no retry", 2, 0, true, 0, 0},
		{"remote after retries", 1, 2, true, 1, 0},
		{"local fallback after failed attempts", -1, 3, false, 1, 1},
		{"shed to local, no retry", -1, 0, false, 0, 0},
	}
	// events writes row i as a dispatched evaluation at millisecond i+1,
	// with the instants an older writer added when oldInstants is set.
	events := func(i int, oldInstants bool) []telemetry.Event {
		r := rows[i]
		end := int64(i+1) * 1_000_000
		attrs := map[string]float64{telemetry.AttrRemoteWorker: r.worker, telemetry.AttrRetries: r.retries}
		if r.remote {
			attrs[telemetry.AttrRemote] = 1
		}
		evs := []telemetry.Event{{Type: telemetry.TypeSpan, Phase: telemetry.PhaseRemoteEval,
			DurNS: 500_000, TimeNS: end, Attrs: attrs}}
		if oldInstants && r.retries > 0 {
			evs = append(evs, telemetry.Event{Type: telemetry.TypeSpan, Phase: "dispatch.retry", TimeNS: end,
				Attrs: map[string]float64{telemetry.AttrRemoteWorker: r.worker, telemetry.AttrRetries: r.retries}})
			if !r.remote {
				evs = append(evs, telemetry.Event{Type: telemetry.TypeSpan, Phase: "dispatch.fallback", TimeNS: end,
					Attrs: map[string]float64{telemetry.AttrRetries: r.retries}})
			}
		}
		return evs
	}
	for _, oldInstants := range []bool{false, true} {
		var all []telemetry.Event
		wantRetried, wantFB := 0, 0
		for i, r := range rows {
			run, err := NewRun(events(i, oldInstants))
			if err != nil {
				t.Fatal(err)
			}
			tl := NewTimeline(run)
			if tl.DispatchRetries != r.wantRetried || tl.DispatchFallbacks != r.wantFB {
				t.Errorf("%s (old instants %v): retries %d, fallbacks %d; want %d, %d", r.name, oldInstants,
					tl.DispatchRetries, tl.DispatchFallbacks, r.wantRetried, r.wantFB)
			}
			all = append(all, events(i, oldInstants)...)
			wantRetried += r.wantRetried
			wantFB += r.wantFB
		}
		run, err := NewRun(all)
		if err != nil {
			t.Fatal(err)
		}
		if tl := NewTimeline(run); tl.DispatchRetries != wantRetried || tl.DispatchFallbacks != wantFB {
			t.Errorf("all rows (old instants %v): retries %d, fallbacks %d; want %d, %d", oldInstants,
				tl.DispatchRetries, tl.DispatchFallbacks, wantRetried, wantFB)
		}
	}
}

// TestTimelineReadsSweepEraSimSpans: an artifact written when a profile was
// a multi-run sweep — one profile.sim span per run, carrying "ways" and the
// warm mode ("warm") — still loads, and its spans still land on their
// worker tracks.
func TestTimelineReadsSweepEraSimSpans(t *testing.T) {
	artifact := `{"type":"log","job":"job-1","time_ns":1000,"msg":"datamime run artifact"}
{"type":"span","job":"job-1","iter":0,"phase":"profile.sim","dur_ns":500000,"time_ns":1800000,"attrs":{"worker":0,"ways":0,"warm":1,"build_ns":1000,"warm_ns":2000,"measure_ns":3000}}
{"type":"span","job":"job-1","iter":0,"phase":"profile.sim","dur_ns":400000,"time_ns":1900000,"attrs":{"worker":1,"ways":4,"warm":2,"build_ns":1000,"warm_ns":200,"measure_ns":3000}}
{"type":"eval","job":"job-1","iter":0,"time_ns":2100000,"params":[0.5],"attrs":{"error":0.4,"best_error":0.4}}
`
	run, err := LoadRun(strings.NewReader(artifact))
	if err != nil {
		t.Fatal(err)
	}
	if tl := NewTimeline(run); len(tl.Workers) != 2 || tl.BusyNS != 900000 {
		t.Fatalf("%d worker tracks, %d ns busy; want 2 and 900000", len(tl.Workers), tl.BusyNS)
	}
}
