package backend

import (
	"context"
	"reflect"
	"testing"
	"time"

	"datamime/internal/telemetry"
)

// TestWorkerShipsSpansWithTraceContext: a request carrying a TraceID gets
// the worker's captured telemetry back in the response envelope — exactly
// the profile's one profile.sim span and, since a worker's profilers share
// its Budget, one budget.wait span, each stamped inside the Evaluate call
// that returned it, on every repeat and with the curves on or off — while a
// request without trace context gets none, keeping the default wire format
// span-free.
func TestWorkerShipsSpansWithTraceContext(t *testing.T) {
	_, rb, _ := newTestWorker(t, WorkerConfig{})
	for _, skipCurves := range []bool{true, false} {
		pr := testProfiler()
		pr.SkipCurves = skipCurves
		pr.CurvePoints, pr.CurveWindows = 2, 1
		req := testRequest(pr)
		req.TraceID = "span-key"

		// evaluate calls rb.Evaluate and requires every returned span inside
		// the call's wall-clock window.
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
			res := evaluate()
			phases := map[string]int{}
			for _, ws := range res.Spans {
				phases[ws.Phase]++
			}
			want := map[string]int{telemetry.PhaseSimRun: 1, telemetry.PhaseBudgetWait: 1}
			if !reflect.DeepEqual(phases, want) {
				t.Errorf("skip_curves=%v evaluation %d shipped spans %v, want %v", skipCurves, i, phases, want)
			}
		}

		// Without trace context the envelope stays lean.
		req.TraceID = ""
		if res := evaluate(); len(res.Spans) != 0 {
			t.Errorf("skip_curves=%v: untraced response shipped %d spans, want 0", skipCurves, len(res.Spans))
		}
	}
}
