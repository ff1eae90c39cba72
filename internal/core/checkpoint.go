package core

import (
	"fmt"

	"datamime/internal/telemetry"
)

// Checkpointing lets a long search survive its process. The optimizer and
// the profiling seeds are deterministic functions of (SearchConfig.Seed,
// Parallel), so the complete search state is captured by the sequence of
// (proposed point, observed error) pairs. Replaying that sequence through a
// fresh optimizer — calling the same batch proposals and Observe calls in
// the same order, but skipping the expensive profiling — reconstructs the
// exact optimizer, RNG, and trace state, bit for bit.

// CheckpointEntry records one search iteration: the normalized proposal and
// what happened when it was evaluated.
type CheckpointEntry struct {
	// Iteration is the global iteration index (0-based, dense: skipped
	// iterations appear too).
	Iteration int `json:"iteration"`
	// U is the proposed point in the normalized unit cube.
	U []float64 `json:"u"`
	// Y is the observed objective value; meaningless when Skipped.
	Y float64 `json:"y"`
	// Skipped marks an evaluation that failed (after the retry allowed by
	// EvalRetrySkip) and was excluded from the optimizer's history.
	Skipped bool `json:"skipped,omitempty"`
	// Retried marks an evaluation whose first profiling attempt failed and
	// whose value came from the perturbed-seed retry.
	Retried bool `json:"retried,omitempty"`
	// Err is the profiling error message for skipped iterations.
	Err string `json:"err,omitempty"`
	// Components is the per-metric error attribution recorded when the
	// objective supports it (see AttributedObjective). Persisting it keeps
	// replayed traces bit-for-bit identical to live ones without
	// re-profiling.
	Components map[string]float64 `json:"components,omitempty"`
}

// Checkpoint is the resumable state of a search: one entry per completed
// iteration, in iteration order.
type Checkpoint struct {
	Entries []CheckpointEntry `json:"entries"`
}

// CheckpointFromEvents derives a recorded search's checkpoint from its events
// (a run artifact, a datamimed job log): one entry per eval event, decoded by
// EvalEventFromTelemetry, stopping at the first one without a u, which cannot
// be replayed.
func CheckpointFromEvents(events []telemetry.Event) (Checkpoint, error) {
	var cp Checkpoint
	for _, tev := range events {
		if tev.Type != telemetry.TypeEval {
			continue
		}
		if len(tev.U) == 0 {
			break
		}
		ev, err := EvalEventFromTelemetry(tev)
		if err != nil {
			return cp, fmt.Errorf("core: iteration %d: %w", tev.Iter, err)
		}
		cp.Entries = append(cp.Entries, CheckpointEntry{
			Iteration:  ev.Record.Iteration,
			U:          ev.U,
			Y:          ev.Record.Error,
			Skipped:    ev.Skipped,
			Retried:    ev.Retried,
			Err:        ev.Err,
			Components: ev.Record.Components,
		})
	}
	return cp, nil
}

// sameUnitPoint reports whether a replayed proposal matches the live one.
// Proposals are deterministic, so these should be identical up to JSON
// round-tripping (which Go's encoding preserves exactly); the tolerance
// guards against drift from a changed binary, in which case replay stops
// and the search re-evaluates live.
func sameUnitPoint(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		d := a[i] - b[i]
		if d > 1e-12 || d < -1e-12 {
			return false
		}
	}
	return true
}
