package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanEmitsDuration(t *testing.T) {
	var got []Event
	r := New(Options{OnEvent: func(ev Event) { got = append(got, ev) }})
	sp := r.StartSpan(PhasePropose, 3)
	time.Sleep(time.Millisecond)
	sp.End(map[string]float64{"batch": 2})
	if len(got) != 1 {
		t.Fatalf("OnEvent called %d times, want 1", len(got))
	}
	ev := got[0]
	if ev.Type != TypeSpan || ev.Phase != PhasePropose || ev.Iter != 3 {
		t.Fatalf("span event = %+v", ev)
	}
	if ev.DurNS < time.Millisecond.Nanoseconds() {
		t.Fatalf("DurNS = %d, want at least the 1ms the span slept", ev.DurNS)
	}
	if ev.Attrs["batch"] != 2 {
		t.Fatalf("attrs = %v", ev.Attrs)
	}
	if ev.TimeNS == 0 {
		t.Fatalf("TimeNS not stamped")
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Emit(Event{Type: TypeLog})
	r.RecordSpan(PhaseGPFit, 0, time.Second, nil)
	r.StartSpan(PhaseProfile, 1).End(nil)
}

// TestDisabledSpanNoAllocs demonstrates the acceptance criterion: the
// disabled telemetry path is a nil check with zero allocations.
func TestDisabledSpanNoAllocs(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.StartSpan(PhaseProfile, 7)
		sp.End(nil)
		r.RecordSpan(PhaseGPFit, 7, time.Second, nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f per op, want 0", allocs)
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.StartSpan(PhaseProfile, i)
		sp.End(nil)
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	r := New(Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.StartSpan(PhaseProfile, i)
		sp.End(nil)
	}
}

func TestRecorderConcurrentEmit(t *testing.T) {
	var col Collector
	r := New(Options{OnEvent: col.Record})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.RecordSpan(PhaseProfile, i, time.Microsecond, nil)
			}
		}(g)
	}
	wg.Wait()
	if got := len(col.Events()); got != 800 {
		t.Fatalf("sink saw %d events, want 800", got)
	}
}

func TestFloat64Atomic(t *testing.T) {
	var f Float64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				f.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := f.Load(); got != 4000 {
		t.Fatalf("Load = %g, want 4000", got)
	}
	f.Store(-1.25)
	if got := f.Load(); got != -1.25 {
		t.Fatalf("Load after Store = %g, want -1.25", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(5 * time.Millisecond)   // bucket 1
	h.Observe(5 * time.Millisecond)   // bucket 1
	h.Observe(time.Second)            // +Inf
	snap := h.Snapshot()
	if snap.Count != 4 {
		t.Fatalf("Count = %d, want 4", snap.Count)
	}
	wantCum := []uint64{1, 3, 3, 4}
	for i, want := range wantCum {
		if snap.Cumulative[i] != want {
			t.Fatalf("Cumulative = %v, want %v", snap.Cumulative, wantCum)
		}
	}
	// Cumulative counts must be monotone and end at Count.
	for i := 1; i < len(snap.Cumulative); i++ {
		if snap.Cumulative[i] < snap.Cumulative[i-1] {
			t.Fatalf("Cumulative not monotone: %v", snap.Cumulative)
		}
	}
	if snap.Cumulative[len(snap.Cumulative)-1] != snap.Count {
		t.Fatalf("+Inf bucket %d != Count %d", snap.Cumulative[len(snap.Cumulative)-1], snap.Count)
	}
	wantSum := 0.0005 + 0.005 + 0.005 + 1
	if diff := snap.Sum - wantSum; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("Sum = %g, want %g", snap.Sum, wantSum)
	}
}

func TestHistogramVec(t *testing.T) {
	v := NewHistogramVec(nil)
	v.Observe(PhasePropose, time.Millisecond)
	v.Observe(PhaseProfile, time.Millisecond)
	v.Observe(PhaseProfile, 2*time.Millisecond)
	labels := v.Labels()
	if len(labels) != 2 || labels[0] != PhaseProfile || labels[1] != PhasePropose {
		t.Fatalf("Labels = %v", labels)
	}
	if got := v.Get(PhaseProfile).Snapshot().Count; got != 2 {
		t.Fatalf("profile count = %d, want 2", got)
	}
	if v.Get("never-observed") != nil {
		t.Fatal("Get on unobserved label returned a histogram")
	}
}

func TestLineLoggerDeterministicOutput(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLineLogger(&buf)
	lg.Info("iter", "n", 3, "err", "0.1234", "params", "qps=10 ratio=0.5")
	lg.Debug("hidden") // below the Info threshold
	lg.WithGroup("job").With("id", "job-1").Info("running")
	got := buf.String()
	want := "iter n=3 err=0.1234 params=\"qps=10 ratio=0.5\"\n" +
		"running job.id=job-1\n"
	if got != want {
		t.Fatalf("log output:\n%q\nwant:\n%q", got, want)
	}
}

// scanBest reads an artifact back through ScanJSONL and collects the
// best_error attribute of every completed eval event — the Fig. 10 series —
// plus the scan's malformed-line count.
func scanBest(t *testing.T, r io.Reader) (trace []float64, malformed int) {
	t.Helper()
	malformed, err := ScanJSONL(r, func(ev Event) error {
		if ev.Type == TypeEval && !ev.Skipped {
			trace = append(trace, ev.Attrs[AttrBestError])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return trace, malformed
}

func TestJSONLRoundTripReplay(t *testing.T) {
	events := []Event{
		{Type: TypeLog, Msg: "header line"},
		{Type: TypeSpan, Phase: PhasePropose, Iter: 0, DurNS: 100},
		{Type: TypeEval, Iter: 0, Attrs: map[string]float64{AttrError: 0.9, AttrBestError: 0.9}},
		{Type: TypeEval, Iter: 1, Skipped: true},
		{Type: TypeEval, Iter: 2, Attrs: map[string]float64{AttrError: 0.4, AttrBestError: 0.4}},
		{Type: TypeEval, Iter: 3, Attrs: map[string]float64{AttrError: 0.7, AttrBestError: 0.4}},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	if trace, _ := scanBest(t, &buf); fmt.Sprint(trace) != "[0.9 0.4 0.4]" {
		t.Fatalf("trace = %v, want [0.9 0.4 0.4]", trace)
	}
}

// TestScanJSONLTruncatedArtifact simulates a writer dying mid-flush: the
// trailing line is cut inside a JSON object. The scan must deliver the
// intact prefix and count the loss rather than fail.
func TestScanJSONLTruncatedArtifact(t *testing.T) {
	events := []Event{
		{Type: TypeLog, Msg: "header"},
		{Type: TypeEval, Iter: 0, Attrs: map[string]float64{AttrBestError: 0.9}},
		{Type: TypeEval, Iter: 1, Attrs: map[string]float64{AttrBestError: 0.5}},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	// Append a final event and cut it mid-object.
	var tail bytes.Buffer
	if err := WriteJSONL(&tail, []Event{{Type: TypeEval, Iter: 2,
		Attrs: map[string]float64{AttrBestError: 0.3}}}); err != nil {
		t.Fatal(err)
	}
	truncated := full + tail.String()[:tail.Len()/2]

	trace, malformed := scanBest(t, strings.NewReader(truncated))
	if fmt.Sprint(trace) != "[0.9 0.5]" || malformed != 1 {
		t.Fatalf("truncated artifact: trace = %v, malformed = %d; want [0.9 0.5], 1", trace, malformed)
	}

	// Non-JSON garbage lines are tolerated the same way.
	trace, malformed = scanBest(t, strings.NewReader("not json\n"+full))
	if len(trace) != 2 || malformed != 1 {
		t.Fatalf("garbage line: trace = %v, malformed = %d", trace, malformed)
	}
}

func TestJSONLSinkStreams(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	r := New(Options{OnEvent: sink})
	for i := 0; i < 3; i++ {
		r.Emit(Event{Type: TypeEval, Iter: i, Attrs: map[string]float64{AttrBestError: float64(i)}})
	}
	if trace, _ := scanBest(t, &buf); fmt.Sprint(trace) != "[0 1 2]" {
		t.Fatalf("trace = %v", trace)
	}
}
