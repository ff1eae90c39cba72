package inspect

import (
	"strings"
	"testing"
)

func loadTestRun(t *testing.T, art string) *Run {
	t.Helper()
	run, err := LoadRun(strings.NewReader(art))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestDiffRunsSelfIdentical: an artifact diffed against itself is identical
// — the property the CI determinism gate relies on.
func TestDiffRunsSelfIdentical(t *testing.T) {
	run := loadTestRun(t, testArtifact())
	d := DiffRuns(run, run, DiffOptions{})
	if d.Verdict != VerdictIdentical || !d.Identical() || d.Regressed() {
		t.Fatalf("self-diff: verdict %q, differences %v", d.Verdict, d.Differences)
	}
	if d.BestError.Delta != 0 || d.FirstDivergence != -1 || d.SeriesMaxDelta != 0 {
		t.Errorf("self-diff deltas: %+v", d)
	}
}

// perturb rewrites the artifact's final best error upward, simulating a
// worse run.
func perturbedArtifact() string {
	art := testArtifact()
	return strings.ReplaceAll(art, `"error":0.4,"best_error":0.4`, `"error":0.45,"best_error":0.45`)
}

func TestDiffRunsRegression(t *testing.T) {
	a := loadTestRun(t, testArtifact())
	b := loadTestRun(t, perturbedArtifact())
	d := DiffRuns(a, b, DiffOptions{})
	if d.Verdict != VerdictRegressed || !d.Regressed() {
		t.Fatalf("verdict %q, regressions %v", d.Verdict, d.Regressions)
	}
	if d.BestError.Delta <= 0 {
		t.Errorf("BestError.Delta %g, want > 0", d.BestError.Delta)
	}
	if d.FirstDivergence != 3 {
		t.Errorf("FirstDivergence %d, want 3", d.FirstDivergence)
	}
	// The reverse direction is an improvement, not a regression.
	rev := DiffRuns(b, a, DiffOptions{})
	if rev.Verdict != VerdictImproved || rev.Regressed() {
		t.Errorf("reverse verdict %q, regressions %v", rev.Verdict, rev.Regressions)
	}
}

// TestDiffRunsErrorTolerance: a small error drift under ErrorTolerance is a
// change, not a regression.
func TestDiffRunsErrorTolerance(t *testing.T) {
	a := loadTestRun(t, testArtifact())
	b := loadTestRun(t, perturbedArtifact())
	d := DiffRuns(a, b, DiffOptions{ErrorTolerance: 0.1})
	if d.Verdict != VerdictChanged || d.Regressed() {
		t.Fatalf("verdict %q, regressions %v", d.Verdict, d.Regressions)
	}
	if d.Identical() {
		t.Error("tolerated drift must still register as a difference")
	}
}

// TestDiffRunsShrunkHistory: losing iterations is a regression.
func TestDiffRunsShrunkHistory(t *testing.T) {
	a := loadTestRun(t, testArtifact())
	lines := strings.Split(strings.TrimSpace(testArtifact()), "\n")
	b := loadTestRun(t, strings.Join(lines[:len(lines)-1], "\n"))
	d := DiffRuns(a, b, DiffOptions{})
	if d.Verdict != VerdictRegressed {
		t.Fatalf("verdict %q", d.Verdict)
	}
	found := false
	for _, r := range d.Regressions {
		if strings.Contains(r, "iterations shrank") {
			found = true
		}
	}
	if !found {
		t.Errorf("regressions %v should mention shrunk iterations", d.Regressions)
	}
}

// TestDiffRunsComponentRegression: a worsened per-metric distance crosses
// the component threshold even when total error is unchanged.
func TestDiffRunsComponentRegression(t *testing.T) {
	a := loadTestRun(t, testArtifact())
	art := strings.ReplaceAll(testArtifact(), `"emd_cpu_util":0.25`, `"emd_cpu_util":0.35`)
	b := loadTestRun(t, art)
	d := DiffRuns(a, b, DiffOptions{})
	if d.Verdict != VerdictRegressed {
		t.Fatalf("verdict %q, differences %v", d.Verdict, d.Differences)
	}
	found := false
	for _, r := range d.Regressions {
		if strings.Contains(r, "cpu_util worsened") {
			found = true
		}
	}
	if !found {
		t.Errorf("regressions %v should name cpu_util", d.Regressions)
	}
}

// TestDiffRunsEmptyB: diffing against an empty run regresses rather than
// crashing.
func TestDiffRunsEmptyB(t *testing.T) {
	a := loadTestRun(t, testArtifact())
	b := &Run{Phases: map[string]PhaseStat{}}
	d := DiffRuns(a, b, DiffOptions{})
	if d.Verdict != VerdictRegressed {
		t.Fatalf("verdict %q", d.Verdict)
	}
}

// TestDiffRunsComparesEveryIteration: a change to an iteration that is not
// the best, and leaves the convergence series alone, is a difference (not a
// regression) naming that iteration. How an iteration was served — a cache
// hit, a replay, a skip's message, a timing — is not a difference.
func TestDiffRunsComparesEveryIteration(t *testing.T) {
	a := loadTestRun(t, testArtifact())
	for _, c := range []struct {
		name, old, new string
		want           string // "" for identical
	}{
		{"error", `"error":0.6,`, `"error":0.65,`, "iteration 5 differs (error 0.6 -> 0.65)"},
		{"params", `"params":[0.4,0.5]`, `"params":[0.4,0.55]`, "iteration 5 differs (params moved)"},
		{"skip", `"iter":2,"skipped":true,"msg":"generator failed"}`, `"iter":2,"params":[0.15,0.5],"attrs":{"error":0.95,"best_error":0.7}}`, "iteration 2 differs (skipped true -> false)"},
		{"served from the cache", `,"cache_hit":1`, `,"replayed":1,"sim_cycles":5`, ""},
		{"skip message", `"msg":"generator failed"`, `"msg":"profiler failed"`, ""},
		{"timing", `"phase_profile_ns":1000000`, `"phase_profile_ns":7`, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			art := testArtifact()
			if !strings.Contains(art, c.old) {
				t.Fatalf("the artifact has no %s", c.old)
			}
			b := loadTestRun(t, strings.Replace(art, c.old, c.new, 1))
			d := DiffRuns(a, b, DiffOptions{})
			if c.want == "" {
				if !d.Identical() {
					t.Fatalf("differences %v, want none", d.Differences)
				}
				return
			}
			found := false
			for _, msg := range d.Differences {
				found = found || msg == c.want
			}
			if !found || d.Regressed() {
				t.Fatalf("verdict %q, differences %v, regressions %v; want the difference %q", d.Verdict, d.Differences, d.Regressions, c.want)
			}
		})
	}
}
