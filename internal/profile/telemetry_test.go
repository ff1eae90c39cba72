package profile

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"datamime/internal/telemetry"
)

// TestParallelTelemetrySimSpans: profiles run concurrently under one
// budget emit one profile.sim span each, stamped with the budget slot they
// held, and one budget.wait span each — without perturbing the profile.
func TestParallelTelemetrySimSpans(t *testing.T) {
	b := kvBenchmark(256, 60_000)
	want, err := fastProfiler().Profile(b, 7)
	if err != nil {
		t.Fatal(err)
	}

	var collector telemetry.Collector
	pr := fastProfiler()
	pr.Budget = NewBudget(2)
	pr.Telemetry = telemetry.New(telemetry.Options{OnEvent: collector.Record})
	const profiles = 4
	got := make([]*Profile, profiles)
	errs := make([]error, profiles)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = pr.Profile(b, 7)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatal("instrumented concurrent profile diverged from uninstrumented serial")
		}
	}

	simRuns, waits := 0, 0
	for _, ev := range collector.Events() {
		if ev.Type != telemetry.TypeSpan {
			continue
		}
		switch ev.Phase {
		case telemetry.PhaseSimRun:
			simRuns++
			if w := int(ev.Attrs[telemetry.AttrWorker]); w < 0 || w >= pr.Budget.Cap() {
				t.Errorf("sim span worker attr %d outside the budget's slots [0,%d)", w, pr.Budget.Cap())
			}
			if ev.DurNS < 0 {
				t.Error("sim span with negative duration")
			}
		case telemetry.PhaseBudgetWait:
			waits++
		}
	}
	if simRuns != profiles || waits != profiles {
		t.Errorf("%d profile.sim and %d budget.wait spans, want one of each per profile (%d)", simRuns, waits, profiles)
	}
}

// TestSerialTelemetrySimSpans: a profile without a budget instruments too,
// attributing its pass to worker 0, and emits no budget.wait span.
func TestSerialTelemetrySimSpans(t *testing.T) {
	var collector telemetry.Collector
	pr := fastProfiler()
	pr.Telemetry = telemetry.New(telemetry.Options{OnEvent: collector.Record})
	if _, err := pr.Profile(kvBenchmark(256, 60_000), 7); err != nil {
		t.Fatal(err)
	}
	simRuns := 0
	for _, ev := range collector.Events() {
		if ev.Type != telemetry.TypeSpan {
			continue
		}
		switch ev.Phase {
		case telemetry.PhaseSimRun:
			simRuns++
			if w := ev.Attrs[telemetry.AttrWorker]; w != 0 {
				t.Errorf("serial sim span on worker %g, want 0", w)
			}
		case telemetry.PhaseBudgetWait:
			t.Error("budget.wait span without a budget")
		}
	}
	if simRuns != 1 {
		t.Fatalf("%d profile.sim spans recorded without a budget, want 1", simRuns)
	}
}

// TestCyclesCountsEveryRunsWarmup: Spec.Cycles is the windows a profile's
// lanes close — WarmupWindows before every lane, counted from the pass's
// profile.sim span, then Windows for the main lane and CurveWindows for
// each curve point.
func TestCyclesCountsEveryRunsWarmup(t *testing.T) {
	for _, skip := range []bool{false, true} {
		var collector telemetry.Collector
		pr := fastProfiler()
		pr.SkipCurves = skip
		pr.Telemetry = telemetry.New(telemetry.Options{OnEvent: collector.Record})
		p, err := pr.Profile(kvBenchmark(256, 60_000), 7)
		if err != nil {
			t.Fatal(err)
		}
		runs := 0
		for _, ev := range collector.Events() {
			if ev.Type == telemetry.TypeSpan && ev.Phase == telemetry.PhaseSimRun {
				runs += int(ev.Attrs[telemetry.AttrLanes])
			}
		}
		if runs != 1+len(p.Curve) {
			t.Fatalf("skip=%v: the pass carried %d lanes for %d curve points", skip, runs, len(p.Curve))
		}
		windows := runs*pr.WarmupWindows + pr.Windows + (runs-1)*pr.CurveWindows
		if got, want := pr.Cycles(len(p.Curve)), pr.WindowCycles*float64(windows); got != want {
			t.Errorf("skip=%v: Cycles = %g over %d runs, want %g (%d windows)", skip, got, runs, want, windows)
		}
	}
}

// TestSimSpanCarriesRunPhases: with telemetry on, every profile.sim span says
// where its time went, and the parts fit inside the span.
func TestSimSpanCarriesRunPhases(t *testing.T) {
	var spans telemetry.Collector
	pr := fastProfiler()
	pr.Telemetry = telemetry.New(telemetry.Options{OnEvent: spans.Record})
	if _, err := pr.Profile(kvBenchmark(256, 60_000), 7); err != nil {
		t.Fatal(err)
	}
	runs := 0
	for _, ev := range spans.Events() {
		if ev.Type != telemetry.TypeSpan || ev.Phase != telemetry.PhaseSimRun {
			continue
		}
		runs++
		var sum float64
		for _, k := range []string{telemetry.AttrBuildNS, telemetry.AttrWarmNS, telemetry.AttrMeasureNS} {
			v, ok := ev.Attrs[k]
			if !ok || v <= 0 {
				t.Errorf("sim span attr %s = %v, want a positive duration", k, v)
			}
			sum += v
		}
		if sum > float64(ev.DurNS) {
			t.Errorf("sim span phases sum to %.0f ns, more than the span's %d ns", sum, ev.DurNS)
		}
		if got, want := ev.Attrs[telemetry.AttrLanes], float64(1+len(pr.curveWays())); got != want {
			t.Errorf("sim span lanes attr = %v, want %v", got, want)
		}
	}
	if runs != 1 {
		t.Fatalf("%d profile.sim spans, want the pass's one", runs)
	}
}

// TestProfileSpans: one ProfileContext reports its pass as exactly one
// profile.sim span, plus exactly one budget.wait span when the profiler
// shares a Budget — with the curves on or off, and nothing else.
func TestProfileSpans(t *testing.T) {
	for _, skipCurves := range []bool{true, false} {
		for _, budget := range []*Budget{nil, NewBudget(1)} {
			var collector telemetry.Collector
			pr := fastProfiler()
			pr.SkipCurves = skipCurves
			pr.Budget = budget
			pr.Telemetry = telemetry.New(telemetry.Options{OnEvent: collector.Record})
			if _, err := pr.ProfileContext(context.Background(), kvBenchmark(256, 60_000), 7); err != nil {
				t.Fatal(err)
			}
			got := map[string]int{}
			for _, ev := range collector.Events() {
				if ev.Type == telemetry.TypeSpan {
					got[ev.Phase]++
				}
			}
			want := map[string]int{telemetry.PhaseSimRun: 1}
			if budget != nil {
				want[telemetry.PhaseBudgetWait] = 1
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("skip_curves=%v budget=%v: spans %v, want %v", skipCurves, budget != nil, got, want)
			}
		}
	}
}
