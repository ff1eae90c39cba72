package core

// Resuming lets a long search survive its process. The optimizer and the
// profiling seeds are deterministic functions of (SearchConfig.Seed,
// Parallel), so the complete search state is captured by the iterations'
// eval events: each one's proposed point, observed error and outcome.
// Replaying them through a fresh optimizer — calling the same batch
// proposals and Observe calls in the same order, but skipping the expensive
// profiling — reconstructs the exact optimizer, RNG, and trace state, bit
// for bit.

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
