//go:build !race

package opt

import (
	"runtime/metrics"
	"testing"
)

// TestSearchAllocatesLittleBeyondItsFactors: a 200-proposal oracle search
// allocates at most 1.5 times the storage its 24 grid factors need at their
// final size. A factor's rows are written once into chunks that never move,
// so nothing regrows them, and the rest of a proposal reuses its buffers.
// Under the race detector, which allocates on its own account, the test is
// not built.
func TestSearchAllocatesLittleBeyondItsFactors(t *testing.T) {
	const iters = 200
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	before := s[0].Value.Uint64()
	oracleSearch(iters, false)
	metrics.Read(s)
	got := s[0].Value.Uint64() - before
	factors := len(hyperLengthScales) * len(hyperNoiseFracs) * iters * (iters + 1) / 2 * 8
	if limit := 1.5 * float64(factors); float64(got) > limit {
		t.Fatalf("a %d-proposal search allocated %.2f MB, above 1.5 × its factors' %.2f MB",
			iters, float64(got)/1e6, float64(factors)/1e6)
	}
	t.Logf("a %d-proposal search allocated %.2f MB; its factors need %.2f MB", iters, float64(got)/1e6, float64(factors)/1e6)
}
