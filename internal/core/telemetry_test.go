package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"datamime/internal/datagen"
	"datamime/internal/opt"
	"datamime/internal/profile"
	"datamime/internal/telemetry"
)

// TestTelemetryDoesNotPerturbSearch: enabling the recorder must not change
// proposals, seeds, or the trace — telemetry is observation only.
func TestTelemetryDoesNotPerturbSearch(t *testing.T) {
	plain, plainEvents := searchEvents(t, metricSearchConfig(8, 1, 42))

	var col telemetry.Collector
	rec := telemetry.New(telemetry.Options{OnEvent: col.Record})
	cfg := metricSearchConfig(8, 1, 42)
	cfg.Telemetry = rec
	cfg.Profiler.Telemetry = rec
	traced, tracedEvents := searchEvents(t, cfg)

	if !reflect.DeepEqual(plain.Trace, traced.Trace) {
		t.Fatalf("telemetry perturbed the trace:\nplain  %v\ntraced %v", plain.Trace, traced.Trace)
	}
	if !reflect.DeepEqual(plainEvents, tracedEvents) {
		t.Fatal("telemetry perturbed the eval events")
	}

	// Search-health diagnostics are computed whether or not telemetry is on
	// (DeepEqual above already proved both runs attach identical blocks);
	// the surrogate-backed iterations past the initial design must carry one.
	withDiag := 0
	for _, r := range plain.Trace {
		if r.Diagnostics != nil {
			withDiag++
			if r.Diagnostics.Observations == 0 || r.Diagnostics.Candidates == 0 {
				t.Fatalf("iteration %d diagnostics incomplete: %+v", r.Iteration, *r.Diagnostics)
			}
		}
	}
	if withDiag == 0 {
		t.Fatal("no trace record carries GP diagnostics")
	}

	// Every pipeline phase must have produced spans, every iteration an eval
	// event, and every diagnostics-bearing iteration a search.diagnostics
	// event.
	phases := make(map[string]int)
	evals, diagEvents := 0, 0
	for _, ev := range col.Events() {
		switch ev.Type {
		case telemetry.TypeSpan:
			phases[ev.Phase]++
		case telemetry.TypeEval:
			evals++
		case telemetry.TypeSearchDiagnostics:
			diagEvents++
			if d, err := opt.DiagnosticsFromAttrs(ev.Attrs); err != nil || d.Observations == 0 {
				t.Fatalf("search.diagnostics event without observations: %+v", ev)
			}
		}
	}
	if diagEvents != withDiag {
		t.Errorf("recorded %d search.diagnostics events, want %d (one per diagnostics-bearing iteration)",
			diagEvents, withDiag)
	}
	for _, want := range []string{
		telemetry.PhasePropose, telemetry.PhaseGenerate, telemetry.PhaseProfile,
		telemetry.PhaseSimRun, telemetry.PhaseObserve,
	} {
		if phases[want] == 0 {
			t.Errorf("no %q spans recorded (phases: %v)", want, phases)
		}
	}
	if evals != 8 {
		t.Errorf("recorded %d eval events, want 8", evals)
	}
}

// TestArtifactReplayMatchesMinEMDTrace: the acceptance criterion — a JSONL
// artifact streamed from the recorder replays to the same best-error series
// as the in-memory Result.
func TestArtifactReplayMatchesMinEMDTrace(t *testing.T) {
	var buf bytes.Buffer
	cfg := metricSearchConfig(10, 2, 5)
	cfg.Telemetry = telemetry.New(telemetry.Options{OnEvent: telemetry.NewJSONLSink(&buf)})
	res, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var replayed []float64
	if _, err := telemetry.ScanJSONL(&buf, func(tev telemetry.Event) error {
		if tev.Type != telemetry.TypeEval {
			return nil
		}
		ev, err := EvalEventFromTelemetry(tev)
		if !ev.Skipped {
			replayed = append(replayed, ev.Record.BestError)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, res.MinEMDTrace()) {
		t.Fatalf("artifact replay diverged:\nreplayed %v\nin-memory %v", replayed, res.MinEMDTrace())
	}
}

// TestEvalEventWireRoundTrip holds the eval encoder and decoder together
// field by field: every field of EvalEvent and its IterationRecord (the
// proposed point U among them), set on its own, survives TelemetryEvent ->
// JSON -> EvalEventFromTelemetry. A field added to a struct alone fails here
// until both directions know it. The one exception is Record.Diagnostics,
// which rides on the iteration's search.diagnostics event instead (see
// EvalEventFromTelemetry).
func TestEvalEventWireRoundTrip(t *testing.T) {
	// set gives the field at path a non-zero value of its kind.
	set := func(path string, f reflect.Value) {
		switch f.Interface().(type) {
		case bool:
			f.SetBool(true)
		case int:
			f.SetInt(7)
		case float64:
			f.SetFloat(1.5)
		case string:
			f.SetString("profiling failed")
		case []float64:
			f.Set(reflect.ValueOf([]float64{1.5, 2}))
		case map[string]float64:
			f.Set(reflect.ValueOf(map[string]float64{"l1d_mpki": 0.25}))
		case map[string]int64:
			f.Set(reflect.ValueOf(map[string]int64{telemetry.PhaseProfile: 1000}))
		default:
			t.Fatalf("%s is a %s: teach this test (and the eval wire form) the new kind", path, f.Type())
		}
	}
	// leaves lists the index path of every field the eval event carries.
	var leaves func(typ reflect.Type, prefix []int) [][]int
	leaves = func(typ reflect.Type, prefix []int) [][]int {
		var out [][]int
		for i := 0; i < typ.NumField(); i++ {
			path := append(append([]int(nil), prefix...), i)
			switch ft := typ.Field(i).Type; {
			case ft == reflect.TypeOf((*opt.Diagnostics)(nil)):
			case ft.Kind() == reflect.Struct:
				out = append(out, leaves(ft, path)...)
			default:
				out = append(out, path)
			}
		}
		return out
	}
	typ := reflect.TypeOf(EvalEvent{})
	for _, path := range leaves(typ, nil) {
		var ev EvalEvent
		name := typ.FieldByIndex(path).Name
		set(name, reflect.ValueOf(&ev).Elem().FieldByIndex(path))
		data, err := json.Marshal(ev.TelemetryEvent())
		if err != nil {
			t.Fatal(err)
		}
		var tev telemetry.Event
		if err := json.Unmarshal(data, &tev); err != nil {
			t.Fatal(err)
		}
		back, err := EvalEventFromTelemetry(tev)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(back, ev) {
			t.Errorf("%s does not survive the wire (%s):\nin  %+v\nout %+v", name, data, ev, back)
		}
	}
}

// TestEvalEventFromTelemetryRejectsBrokenEval: a syntactically valid
// completed eval without best_error breaks the artifact convention — a hard
// error, unlike a truncated line. A skipped iteration carries none.
func TestEvalEventFromTelemetryRejectsBrokenEval(t *testing.T) {
	if _, err := EvalEventFromTelemetry(telemetry.Event{Type: telemetry.TypeEval}); err == nil {
		t.Fatal("eval event without best_error accepted")
	}
	if _, err := EvalEventFromTelemetry(telemetry.Event{Type: telemetry.TypeEval, Skipped: true}); err != nil {
		t.Fatalf("skipped eval event rejected: %v", err)
	}
}

// TestAttributedComponentsRoundTrip: ProfileObjective searches attribute the
// error across the Table I components, the attribution survives a JSON
// checkpoint round-trip, and a resumed search replays it bit for bit.
func TestAttributedComponentsRoundTrip(t *testing.T) {
	gen := smallKVGenerator()
	pr := fastProfiler()
	hidden := gen.Benchmark([]float64{120_000, 0.95, 900})
	target, err := pr.Profile(hidden, 999)
	if err != nil {
		t.Fatal(err)
	}
	base := SearchConfig{
		Generator:  gen,
		Objective:  ProfileObjective{Target: target, Model: NewErrorModel()},
		Profiler:   fastProfiler(),
		Iterations: 6,
		Seed:       7,
		Cache:      newMapCache(),
	}

	full, events := searchEvents(t, base)
	model := NewErrorModel()
	for i, rec := range full.Trace {
		if len(rec.Components) == 0 {
			t.Fatalf("trace[%d] has no component attribution", i)
		}
		var sum float64
		for c, d := range rec.Components {
			sum += model.Weights[Component(c)] * d
		}
		if diff := sum - rec.Error; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("trace[%d]: components sum to %g, Error = %g", i, sum, rec.Error)
		}
	}
	// Persist → restore → resume: the events written as artifact lines and
	// read back replay to a trace (components included) identical to the
	// uninterrupted run's.
	tevs := make([]telemetry.Event, len(events))
	for i, ev := range events {
		tevs[i] = ev.TelemetryEvent()
	}
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, tevs); err != nil {
		t.Fatal(err)
	}
	restored := resumeFrom(t, scanArtifact(t, &buf))
	for i, ev := range restored {
		if len(ev.Record.Components) == 0 {
			t.Fatalf("restored event %d has no components", i)
		}
	}
	resumeCfg := base
	resumeCfg.Resume = restored
	resumed, err := Search(resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Trace, resumed.Trace) {
		t.Fatalf("resumed trace diverged:\nfull    %+v\nresumed %+v", full.Trace, resumed.Trace)
	}
}

// TestResumeDeterministicWithTelemetry: interrupt-and-resume stays
// bit-for-bit deterministic with telemetry enabled on either leg.
func TestResumeDeterministicWithTelemetry(t *testing.T) {
	cache := newMapCache()
	base := metricSearchConfig(9, 1, 11)
	base.Cache = cache

	full, err := Search(base)
	if err != nil {
		t.Fatal(err)
	}

	// First leg (telemetry on): keep the events of ~half the budget.
	firstLeg := base
	firstLeg.Telemetry = telemetry.New(telemetry.Options{})
	_, first := searchEvents(t, firstLeg)

	// Second leg (telemetry on too): resume to the full budget.
	second := base
	second.Resume = first[:5]
	second.Telemetry = telemetry.New(telemetry.Options{})
	resumed, err := Search(second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Trace, resumed.Trace) {
		t.Fatalf("telemetry-enabled resume diverged:\nfull    %v\nresumed %v", full.Trace, resumed.Trace)
	}
	if full.BestError != resumed.BestError {
		t.Fatalf("BestError %g != resumed %g", full.BestError, resumed.BestError)
	}
}

// TestTraceExportTelemetryBitIdentical is the -trace determinism gate:
// running the full parallel pipeline with the trace-collector sink attached
// (cmd/datamime's -trace path: collector + profiler instrumentation,
// profile.sim and budget.wait spans included) must produce results
// bit-identical to an uninstrumented run, and the collected stream must
// export as a structurally valid Perfetto trace. Run under -race this also
// proves the collector is safe against concurrent profiles' emitters.
func TestTraceExportTelemetryBitIdentical(t *testing.T) {
	plain, plainEvents := searchEvents(t, metricSearchConfig(8, 2, 42))

	var collector telemetry.Collector
	rec := telemetry.New(telemetry.Options{OnEvent: collector.Record})
	cfg := metricSearchConfig(8, 2, 42)
	cfg.ProfileWorkers = 2
	cfg.Telemetry = rec
	cfg.Profiler.Telemetry = rec
	traced, tracedEvents := searchEvents(t, cfg)

	if !reflect.DeepEqual(plain.Trace, traced.Trace) {
		t.Fatalf("trace instrumentation perturbed the search:\nplain  %v\ntraced %v",
			plain.Trace, traced.Trace)
	}
	if !reflect.DeepEqual(plainEvents, tracedEvents) {
		t.Fatal("trace instrumentation perturbed the eval events")
	}

	var buf bytes.Buffer
	if err := telemetry.WriteTrace(&buf, collector.Events()); err != nil {
		t.Fatal(err)
	}
	st, err := telemetry.ValidateTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Spans == 0 || st.WorkerTracks == 0 {
		t.Fatalf("exported trace missing spans or worker tracks: %+v", st)
	}
}

// seedFailingEvaluator measures candidates in-process, as the search's own
// profiler would, except under the listed profiling seeds, where it fails.
type seedFailingEvaluator struct {
	gen  datagen.Generator
	pr   *profile.Profiler
	fail map[uint64]bool
}

func (e seedFailingEvaluator) Evaluate(ctx context.Context, x []float64, seed uint64) (*profile.Profile, error) {
	if e.fail[seed] {
		return nil, errors.New("injected evaluation failure")
	}
	return e.pr.ProfileContext(ctx, e.gen.Benchmark(x), seed)
}

// TestDiagnosticsEventRidesWithItsRecord: a search.diagnostics event is
// written from the trace record that carries the snapshot — under that
// record's iteration, immediately before its eval event, once per such
// record. The first evaluation of a surrogate-backed batch fails on both
// attempts here, so the batch's snapshot rides on the batch's second
// iteration, not on the iteration the batch was proposed at.
func TestDiagnosticsEventRidesWithItsRecord(t *testing.T) {
	const seed = 42
	plain, err := Search(metricSearchConfig(10, 2, seed))
	if err != nil {
		t.Fatal(err)
	}
	first := -1
	for _, r := range plain.Trace {
		if r.Diagnostics != nil {
			first = r.Iteration
			break
		}
	}
	if first < 0 {
		t.Fatal("no surrogate-backed batch in the plain run")
	}

	var col telemetry.Collector
	cfg := metricSearchConfig(10, 2, seed)
	cfg.OnEvalError = EvalRetrySkip
	cfg.Evaluator = seedFailingEvaluator{gen: cfg.Generator, pr: cfg.Profiler, fail: map[uint64]bool{
		IterationSeed(seed, first, false): true,
		IterationSeed(seed, first, true):  true,
	}}
	cfg.Telemetry = telemetry.New(telemetry.Options{OnEvent: col.Record})
	res, evalEvents := searchEvents(t, cfg)
	if res.Skipped != 1 || !evalEvents[first].Skipped {
		t.Fatalf("iteration %d was not the one skip (skipped %d)", first, res.Skipped)
	}
	snapshots := make(map[int]opt.Diagnostics)
	for _, r := range res.Trace {
		if r.Diagnostics != nil {
			snapshots[r.Iteration] = *r.Diagnostics
		}
	}
	if _, ok := snapshots[first+1]; !ok {
		t.Fatalf("the batch's snapshot is not on iteration %d: %v", first+1, snapshots)
	}

	events := col.Events()
	seen := 0
	for i, ev := range events {
		if ev.Type != telemetry.TypeSearchDiagnostics {
			continue
		}
		seen++
		want, ok := snapshots[ev.Iter]
		if !ok {
			t.Fatalf("search.diagnostics event at iteration %d, whose record carries no snapshot", ev.Iter)
		}
		if got, err := opt.DiagnosticsFromAttrs(ev.Attrs); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: event snapshot %+v (%v), record's %+v", ev.Iter, got, err, want)
		}
		if i+1 == len(events) || events[i+1].Type != telemetry.TypeEval ||
			events[i+1].Iter != ev.Iter || events[i+1].Skipped {
			t.Fatalf("search.diagnostics event at iteration %d is not followed by that record's eval event", ev.Iter)
		}
	}
	if seen != len(snapshots) {
		t.Fatalf("%d search.diagnostics events, want one per snapshot-bearing record (%d)", seen, len(snapshots))
	}
}
