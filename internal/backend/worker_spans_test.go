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
// the worker's captured telemetry back in the response envelope — sim spans,
// each stamped inside the Evaluate call that returned it, on every repeat —
// while a request without trace context gets none, keeping the default wire
// format span-free.
func TestWorkerShipsSpansWithTraceContext(t *testing.T) {
	_, rb, _ := newTestWorker(t, WorkerConfig{})
	pr := testProfiler()
	req := testRequest(pr)
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

	// The repeat is simulated again and ships its own spans.
	for i := 0; i < 2; i++ {
		if res := evaluate(); !hasSpan(res.Spans, telemetry.PhaseSimRun) {
			t.Errorf("evaluation %d shipped no %s spans", i, telemetry.PhaseSimRun)
		}
	}

	// Without trace context the envelope stays lean.
	req.TraceID = ""
	if res3 := evaluate(); len(res3.Spans) != 0 {
		t.Errorf("untraced response shipped %d spans, want 0", len(res3.Spans))
	}
}

// TestWorkerCountsEveryTruncatedSpan: MaxWireSpans applies once, where the
// worker writes its response. An evaluation that captured MaxWireSpans+905
// spans ships the earliest MaxWireSpans, and
// datamime_worker_spans_truncated_total rises by every span dropped.
func TestWorkerCountsEveryTruncatedSpan(t *testing.T) {
	w := NewWorker(WorkerConfig{})
	events := make([]telemetry.Event, MaxWireSpans+905)
	for i := range events {
		events[i] = telemetry.Event{Type: telemetry.TypeSpan, Phase: telemetry.PhaseSimRun,
			Iter: i, DurNS: 1, TimeNS: int64(i + 1)}
	}
	dropped := len(events) - MaxWireSpans

	rec := httptest.NewRecorder()
	w.respond(rec, EvalResult{Profile: &profile.Profile{}, Spans: wireSpans(events)})
	var resp EvalResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Spans) != MaxWireSpans {
		t.Fatalf("response ships %d spans, want %d", len(resp.Spans), MaxWireSpans)
	}
	if last := resp.Spans[MaxWireSpans-1]; last.Iter != MaxWireSpans-1 {
		t.Fatalf("last shipped span is iteration %d, want the earliest spans kept", last.Iter)
	}

	metrics := httptest.NewRecorder()
	w.Handler().ServeHTTP(metrics, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	want := fmt.Sprintf("datamime_worker_spans_truncated_total %d\n", dropped)
	if !strings.Contains(metrics.Body.String(), want) {
		t.Fatalf("metrics lack %q:\n%s", want, metrics.Body)
	}
}

func hasSpan(spans []WireSpan, phase string) bool {
	for _, ws := range spans {
		if ws.Phase == phase {
			return true
		}
	}
	return false
}
