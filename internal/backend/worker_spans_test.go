package backend

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"datamime/internal/profile"
	"datamime/internal/telemetry"
)

// TestWorkerShipsSpansWithTraceContext: a request carrying a TraceID gets
// the worker's captured telemetry back in the response envelope — sim spans
// on a miss, a cache.probe span either way, each stamped inside the Evaluate
// call that returned it — while a request without trace context gets none,
// keeping the default wire format span-free.
func TestWorkerShipsSpansWithTraceContext(t *testing.T) {
	_, rb, _ := newTestWorker(t, WorkerConfig{})
	pr := testProfiler()
	req := testRequest(pr)
	req.Key = "span-key"
	req.TraceID = "span-key"

	// evaluate calls rb.Evaluate and requires every returned span inside the
	// call's wall-clock window.
	evaluate := func() EvalResult {
		t.Helper()
		lo := time.Now().UnixNano()
		res, err := rb.Evaluate(context.Background(), req)
		hi := time.Now().UnixNano()
		if err != nil {
			t.Fatal(err)
		}
		for _, ws := range res.Spans {
			if ws.TimeNS-ws.DurNS < lo || ws.TimeNS > hi {
				t.Errorf("%s span [%d, %d] lies outside its Evaluate call [%d, %d]",
					ws.Phase, ws.TimeNS-ws.DurNS, ws.TimeNS, lo, hi)
			}
		}
		return res
	}

	res := evaluate()
	counts := map[string]int{}
	for _, ws := range res.Spans {
		counts[ws.Phase]++
	}
	if counts[telemetry.PhaseSimRun] == 0 {
		t.Errorf("miss response shipped no %s spans: %v", telemetry.PhaseSimRun, counts)
	}
	if counts[telemetry.PhaseCacheProbe] != 1 {
		t.Errorf("miss response shipped %d cache probes, want 1", counts[telemetry.PhaseCacheProbe])
	}
	probe := findSpan(res.Spans, telemetry.PhaseCacheProbe)
	if probe.Attrs[telemetry.AttrCacheHit] != 0 {
		t.Error("first probe reported a cache hit")
	}

	// The repeat is a cache hit: only the probe span ships, attributed hit.
	res2 := evaluate()
	if len(res2.Spans) != 1 {
		t.Fatalf("hit response shipped %d spans, want just the probe", len(res2.Spans))
	}
	probe = findSpan(res2.Spans, telemetry.PhaseCacheProbe)
	if probe.Attrs[telemetry.AttrCacheHit] != 1 {
		t.Errorf("hit probe attrs = %v, want cache_hit=1", probe.Attrs)
	}

	// Without trace context the envelope stays lean.
	req.Key, req.TraceID = "plain-key", ""
	if res3 := evaluate(); len(res3.Spans) != 0 {
		t.Errorf("untraced response shipped %d spans, want 0", len(res3.Spans))
	}
}

// TestWorkerCountsEveryTruncatedSpan: MaxWireSpans applies once, where the
// worker writes its response. A miss that captured MaxWireSpans+905 spans
// behind its cache probe ships the earliest MaxWireSpans, and
// datamime_worker_spans_truncated_total rises by every span dropped.
func TestWorkerCountsEveryTruncatedSpan(t *testing.T) {
	w := NewWorker(WorkerConfig{})
	events := make([]telemetry.Event, MaxWireSpans+905)
	for i := range events {
		events[i] = telemetry.Event{Type: telemetry.TypeSpan, Phase: telemetry.PhaseSimRun,
			Iter: i, DurNS: 1, TimeNS: int64(i + 1)}
	}
	spans := append([]WireSpan{{Phase: telemetry.PhaseCacheProbe, TimeNS: 1}}, wireSpans(events)...)
	dropped := 1 + len(events) - MaxWireSpans // the probe and every captured span, less what ships

	rec := httptest.NewRecorder()
	w.respond(rec, EvalResult{Profile: &profile.Profile{}}, spans, "trace")
	var resp EvalResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Spans) != MaxWireSpans {
		t.Fatalf("response ships %d spans, want %d", len(resp.Spans), MaxWireSpans)
	}
	if last := resp.Spans[MaxWireSpans-1]; last.Iter != MaxWireSpans-2 {
		t.Fatalf("last shipped span is iteration %d, want the earliest spans kept", last.Iter)
	}

	metrics := httptest.NewRecorder()
	w.Handler().ServeHTTP(metrics, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	want := fmt.Sprintf("datamime_worker_spans_truncated_total %d\n", dropped)
	if !strings.Contains(metrics.Body.String(), want) {
		t.Fatalf("metrics lack %q:\n%s", want, metrics.Body)
	}
}

func findSpan(spans []WireSpan, phase string) WireSpan {
	for _, ws := range spans {
		if ws.Phase == phase {
			return ws
		}
	}
	return WireSpan{}
}
