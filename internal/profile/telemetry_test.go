package profile

import (
	"reflect"
	"testing"

	"datamime/internal/telemetry"
)

// TestParallelTelemetrySimSpans: the instrumented sweep emits one
// profile.sim span per simulator run, each stamped with its worker index and
// way allocation, and budget waits surface as budget.wait spans — without
// perturbing the profile.
func TestParallelTelemetrySimSpans(t *testing.T) {
	b := kvBenchmark(256, 60_000)
	want, err := fastProfiler().Profile(b, 7)
	if err != nil {
		t.Fatal(err)
	}

	var collector telemetry.Collector
	pr := fastProfiler()
	pr.Workers = 3
	pr.disableWorkerClamp = true // the span assertions need a real pool even on 1-CPU hosts
	pr.Budget = NewBudget(2)
	pr.Telemetry = telemetry.New(telemetry.Options{OnEvent: collector.Record})
	got, err := pr.Profile(b, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("instrumented parallel profile diverged from uninstrumented serial")
	}

	simRuns, waits := 0, 0
	workers := map[int]bool{}
	for _, ev := range collector.Events() {
		if ev.Type != telemetry.TypeSpan {
			continue
		}
		switch ev.Phase {
		case telemetry.PhaseSimRun:
			simRuns++
			w := int(ev.Attrs[telemetry.AttrWorker])
			if w < 0 || w >= pr.Workers {
				t.Errorf("sim span worker attr %d outside pool [0,%d)", w, pr.Workers)
			}
			workers[w] = true
			if _, ok := ev.Attrs[telemetry.AttrWays]; !ok {
				t.Error("sim span missing ways attr")
			}
			if ev.DurNS < 0 {
				t.Error("sim span with negative duration")
			}
		case telemetry.PhaseBudgetWait:
			waits++
		}
	}
	if simRuns == 0 {
		t.Fatal("no profile.sim spans recorded")
	}
	if waits != simRuns {
		t.Errorf("budget.wait spans = %d, want one per sim run (%d)", waits, simRuns)
	}
	if len(workers) < 2 {
		t.Errorf("sim spans used %d distinct workers, want >= 2", len(workers))
	}
}

// TestSerialTelemetrySimSpans: the serial path (Workers <= 1) instruments
// too, attributing every run to worker 0, and skips budget.wait spans when
// no budget is set.
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
	if simRuns == 0 {
		t.Fatal("no profile.sim spans recorded on the serial path")
	}
}

// TestCyclesCountsEveryRunsWarmup: Spec.Cycles is the windows a profile's
// runs close — WarmupWindows before every run, counted from the sweep's
// profile.sim spans, then Windows for the main run and CurveWindows for
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
				runs++
			}
		}
		if runs != 1+len(p.Curve) {
			t.Fatalf("skip=%v: %d profile.sim spans for %d curve points", skip, runs, len(p.Curve))
		}
		windows := runs*pr.WarmupWindows + pr.Windows + (runs-1)*pr.CurveWindows
		if got, want := pr.Cycles(len(p.Curve)), pr.WindowCycles*float64(windows); got != want {
			t.Errorf("skip=%v: Cycles = %g over %d runs, want %g (%d windows)", skip, got, runs, want, windows)
		}
	}
}
