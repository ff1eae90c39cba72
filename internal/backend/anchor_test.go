package backend

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"datamime/internal/telemetry"
)

// TestShippedSpansNestInTheirRoundTrip: a worker whose wall clock steps
// +10 s after the coordinator probed it still has its shipped spans drawn
// inside the eval.remote span that carried them. Each response anchors its
// own spans — the worker's stamp on the envelope is placed at the moment the
// coordinator received it — so no estimate from an earlier round trip can go
// stale.
func TestShippedSpansNestInTheirRoundTrip(t *testing.T) {
	const step = 10 * time.Second
	worker := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case PathHealthz:
			// Probed before the step: the worker's clock agrees with ours.
			fmt.Fprintf(rw, `{"protocol":%d,"name":"stepped","capacity":1,"time_ns":%d}`,
				ProtocolVersion, time.Now().UnixNano())
		case PathEvaluate:
			arrived := time.Now()
			time.Sleep(20 * time.Millisecond) // the evaluation
			ended := time.Now()
			clock := func(at time.Time) int64 { return at.Add(step).UnixNano() }
			d := ended.Sub(arrived).Nanoseconds()
			fmt.Fprintf(rw, `{"profile":{"benchmark":"b"},"worker":"stepped","duration_ns":%d,`+
				`"spans":[{"phase":%q,"dur_ns":%d,"time_ns":%d,"attrs":{"worker":0}}],"time_ns":%d}`,
				d, telemetry.PhaseSimRun, d, clock(ended), clock(time.Now()))
		default:
			http.NotFound(rw, r)
		}
	}))
	defer worker.Close()

	d := NewDispatcher(DispatcherConfig{Local: NewLocalBackend(testGenerator())})
	d.Register(NewRemoteBackend(worker.URL, "stepped"))
	d.CheckHealth(context.Background())

	var col telemetry.Collector
	ev := NewSearchEvaluator(d, testGenerator().Name, testProfiler())
	ev.Telemetry = telemetry.New(telemetry.Options{OnEvent: col.Record})
	if _, err := ev.Evaluate(context.Background(), []float64{50_000, 0.9, 128}, 7); err != nil {
		t.Fatal(err)
	}

	var remote *telemetry.Event
	var shipped []telemetry.Event
	for _, e := range col.Events() {
		if e.Phase == telemetry.PhaseRemoteEval {
			remote = &e
		} else if _, ok := e.Attrs[telemetry.AttrFleetWorker]; ok {
			shipped = append(shipped, e)
		}
	}
	if remote == nil || remote.Attrs[telemetry.AttrRemote] != 1 {
		t.Fatalf("the worker did not serve the evaluation: eval.remote span %+v", remote)
	}
	if len(shipped) != 1 {
		t.Fatalf("recorded %d shipped spans, want the worker's one", len(shipped))
	}
	lo, hi := remote.TimeNS-remote.DurNS, remote.TimeNS
	for _, s := range shipped {
		if start := s.TimeNS - s.DurNS; start < lo || s.TimeNS > hi {
			t.Errorf("shipped %s span [%+.3f ms, %+.3f ms] lies outside its eval.remote span [0, %.3f ms]",
				s.Phase, float64(start-lo)/1e6, float64(s.TimeNS-lo)/1e6, float64(hi-lo)/1e6)
		}
	}
}
