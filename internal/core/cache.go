package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"datamime/internal/profile"
)

// EvalCache is a content-addressed store of measured profiles, shared
// across searches. Search consults it before profiling a candidate and
// stores every fresh measurement, so repeated evaluations of the same
// (parameters, seed, machine, profiler budget) — warm restarts, resubmitted
// jobs, overlapping searches — skip re-simulation entirely. Implementations
// must be safe for concurrent use; cached profiles are shared and must be
// treated as immutable.
type EvalCache interface {
	// Get returns the profile stored under key, if any.
	Get(key string) (*profile.Profile, bool)
	// Put stores a freshly measured profile under key.
	Put(key string, p *profile.Profile)
}

// EvalKey builds the content address of one evaluation: a hash of the
// generator identity, the machine, what is measured (profile.Spec.Key —
// every budget knob), the denormalized parameter vector, and the profiling
// seed. Two evaluations with equal keys produce bit-identical profiles (the
// simulator is deterministic), so the profile — not the objective value —
// is what the cache stores: one cached measurement serves any objective.
//
// Profiler.Workers, Profiler.Budget, and Profiler.Telemetry are
// deliberately excluded: they control how fast (and how observably) a
// profile is measured, never what is measured, so serial and parallel runs
// share cache entries.
func EvalKey(generator string, pr *profile.Profiler, x []float64, seed uint64) string {
	h := sha256.New()
	fmt.Fprintf(h, "gen=%s|machine=%s|%s|seed=%d", generator, pr.Machine.Name, pr.Spec.Key(), seed)
	for _, v := range x {
		fmt.Fprintf(h, "|%016x", math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
