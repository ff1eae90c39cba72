package backend

import (
	"reflect"
	"testing"
)

// TestMidpointOffset: the offset is the worker clock minus the round trip's
// midpoint, the uncertainty half the round trip.
func TestMidpointOffset(t *testing.T) {
	cases := []struct {
		t0, t2, worker int64
		offset, uncert int64
	}{
		// Worker 1000ns ahead, 100ns RTT: midpoint 1050, worker reads 2050.
		{1000, 1100, 2050, 1000, 50},
		// Worker 500ns behind.
		{2000, 2200, 1600, -500, 100},
		// Perfectly synchronized, instant round trip.
		{5000, 5000, 5000, 0, 0},
	}
	for _, c := range cases {
		off, unc := MidpointOffset(c.t0, c.t2, c.worker)
		if off != c.offset || unc != c.uncert {
			t.Errorf("MidpointOffset(%d,%d,%d) = (%d,%d), want (%d,%d)",
				c.t0, c.t2, c.worker, off, unc, c.offset, c.uncert)
		}
	}
}

// TestClockFilterKeepsMinUncertainty: the filter keeps the minimum-RTT
// sample (the classic queueing-delay defense), counts every sample, and
// ignores unusable ones.
func TestClockFilterKeepsMinUncertainty(t *testing.T) {
	var f clockFilter
	if _, ok := f.estimate(); ok {
		t.Fatal("empty filter reported an estimate")
	}

	f.observe(0, 1000, 600)  // uncertainty 500
	f.observe(0, 100, 10050) // uncertainty 50 — tighter, wins despite wilder offset
	f.observe(0, 4000, 0)    // workerNS == 0 (pre-v2 peer): ignored entirely
	f.observe(100, 50, 75)   // t2 < t0 (clock stepped mid-probe): ignored
	f.observe(0, 2000, 999)  // uncertainty 1000 — looser, loses

	est, ok := f.estimate()
	if !ok {
		t.Fatal("filter with samples reported no estimate")
	}
	if est.UncertaintyNS != 50 {
		t.Errorf("UncertaintyNS = %d, want 50 (min-RTT sample)", est.UncertaintyNS)
	}
	if est.OffsetNS != 10000 {
		t.Errorf("OffsetNS = %d, want 10000", est.OffsetNS)
	}
	if est.Samples != 3 {
		t.Errorf("Samples = %d, want 3 (unusable samples not counted)", est.Samples)
	}
}

// TestRebaseSpansDeterministicMonotonic: under injected skew, rebasing is
// deterministic, order-preserving (a monotonic worker stream stays
// monotonic), leaves unstamped spans alone, and never mutates its input.
func TestRebaseSpansDeterministicMonotonic(t *testing.T) {
	spans := []WireSpan{
		{Phase: "profile.sim", TimeNS: 1_000_000, DurNS: 10},
		{Phase: "profile.sim", TimeNS: 1_000_500, DurNS: 20},
		{Phase: "budget.wait", TimeNS: 0, DurNS: 5}, // unstamped: must stay 0
		{Phase: "profile.sim", TimeNS: 1_002_000, DurNS: 30},
	}
	orig := make([]WireSpan, len(spans))
	copy(orig, spans)

	for _, skew := range []int64{-7_000_000_000, -1, 1, 3_600_000_000_000} {
		a := RebaseSpans(spans, skew)
		b := RebaseSpans(spans, skew)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("skew %d: rebasing is not deterministic", skew)
		}
		if !reflect.DeepEqual(spans, orig) {
			t.Fatalf("skew %d: RebaseSpans mutated its input", skew)
		}
		var prev int64
		for i, ws := range a {
			if orig[i].TimeNS == 0 {
				if ws.TimeNS != 0 {
					t.Fatalf("skew %d: unstamped span was rebased to %d", skew, ws.TimeNS)
				}
				continue
			}
			if want := orig[i].TimeNS - skew; ws.TimeNS != want {
				t.Fatalf("skew %d span %d: TimeNS = %d, want %d", skew, i, ws.TimeNS, want)
			}
			if prev != 0 && ws.TimeNS < prev {
				t.Fatalf("skew %d: rebased stream lost monotonicity at span %d", skew, i)
			}
			prev = ws.TimeNS
		}
	}

	// Offset 0 and empty input return the input unchanged (no copy needed).
	if got := RebaseSpans(spans, 0); &got[0] != &spans[0] {
		t.Error("offset 0 should return the input slice")
	}
	if got := RebaseSpans(nil, 123); got != nil {
		t.Error("empty input should pass through")
	}
}
