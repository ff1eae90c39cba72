package harness

import (
	"strings"
	"testing"

	"datamime/internal/profile"
)

// TestFullEvaluationTiny drives every registered experiment end to end at
// minimal budgets. It verifies the complete evaluation pipeline — searches,
// cross-machine profiling, cloning, case studies, range sweeps, ablations,
// and extensions — produces output for each table and figure. The benches
// run the same experiments at Quick budgets; this test is about coverage,
// not numbers.
func TestFullEvaluationTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("full-evaluation pipeline test")
	}
	st := Settings{
		Iterations: 4,
		Spec: profile.Spec{
			WindowCycles:  100_000,
			Windows:       6,
			WarmupWindows: 1,
			CurveWindows:  2,
			CurvePoints:   2,
		},
		RangePoints:     2,
		RangeIterations: 3,
		Parallel:        4,
		Seed:            1,
	}
	r := NewRunner(st)
	for _, id := range ExperimentIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			var sb strings.Builder
			if err := RunExperiment(r, id, &sb); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if sb.Len() == 0 {
				t.Fatalf("%s produced no output", id)
			}
		})
	}

	// Cross-cutting summaries built on the cached artifacts.
	dm, pp, err := r.IPCErrorSummary()
	if err != nil {
		t.Fatal(err)
	}
	if dm < 0 || pp < 0 {
		t.Fatalf("negative MAPE: %g / %g", dm, pp)
	}
	csDM, csPP, err := r.CaseStudyIPCErrors()
	if err != nil {
		t.Fatal(err)
	}
	if csDM < 0 || csPP < 0 {
		t.Fatalf("negative case-study MAPE: %g / %g", csDM, csPP)
	}
	var sb strings.Builder
	if err := r.ReweightedCaseStudy(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ipc-weighted") {
		t.Fatal("reweighted case study output missing")
	}
	if err := r.Prepare(Workloads()[:2]); err != nil {
		t.Fatal(err)
	}
}
