package kvstore

import (
	"testing"

	"datamime/internal/stats"
	"datamime/internal/trace"
)

// storeOp is one generated request against a store.
type storeOp struct {
	kind     int // opGet, opSet, opDelete
	id       uint64
	key, val int
	fprint   uint64
}

const (
	opGet = iota
	opSet
	opDelete
)

// removalFirstOps generates a request sequence for a store of numKeys
// populated keys whose first write to a key half is a removal: reads and
// value replacements, then a Delete of a resident key, then reads,
// replacements, fresh inserts and deletes mixed. (A memory-limit eviction
// cannot come first: Set only evicts after the insert that went over the
// budget, and that insert has already written a key half.)
func removalFirstOps(rng *stats.RNG, numKeys int) []storeOp {
	resident := func() uint64 { return uint64(rng.IntN(numKeys)) }
	op := func(kind int, id uint64) storeOp {
		return storeOp{kind: kind, id: id, key: 8 + rng.IntN(40), val: 16 + rng.IntN(400), fprint: rng.Uint64()}
	}
	var ops []storeOp
	for i := rng.IntN(20); i > 0; i-- {
		ops = append(ops, op(opGet+rng.IntN(2), resident()))
	}
	ops = append(ops, op(opDelete, resident()))
	fresh := uint64(numKeys)
	for i := 0; i < 400; i++ {
		switch r := rng.IntN(10); {
		case r < 3:
			ops = append(ops, op(opGet, resident()))
		case r < 5:
			ops = append(ops, op(opSet, resident()))
		case r < 8:
			ops = append(ops, op(opSet, fresh))
			fresh++
		default:
			ops = append(ops, op(opDelete, resident()))
		}
	}
	return ops
}

// drive drives ops against s with a budget that every fresh insert exceeds,
// and returns the fold of what the store emitted with the state it ends in.
func drive(s *Server, ops []storeOp) [3]uint64 {
	var col fold
	budget := s.store.LiveBytes() - s.store.LiveBytes()/16
	for _, o := range ops {
		switch o.kind {
		case opGet:
			s.store.Get(&col, o.id)
		case opSet:
			s.store.Set(&col, o.id, o.key, o.val, o.fprint, budget)
		case opDelete:
			s.store.Delete(&col, o.id)
		}
	}
	return [3]uint64{col.h, uint64(s.store.Len()), s.store.LiveBytes()}
}

// TestSharedRemovalFirstEqualsNew: on generated request sequences whose first
// write to a key half is a Delete — followed by inserts that evict — a server
// forked from a kept build emits what New's server emits and ends in its
// state, and so does a second fork of the same build taken afterwards: the
// removal copied the key halves before it unlinked, and the kept build was
// never written.
func TestSharedRemovalFirstEqualsNew(t *testing.T) {
	rng := stats.NewRNG(26)
	for c := 0; c < 40; c++ {
		cfg := Config{
			NumKeys:   1100 + rng.IntN(2000), // over New's 1024-bucket floor, so chains run past their heads
			KeySize:   stats.Normal{Mu: 24, Sigma: 6, Min: 4},
			ValueSize: stats.Normal{Mu: 200, Sigma: 60, Min: 1},
			GetRatio:  0.9,
		}
		seed := rng.Uint64()
		ops := removalFirstOps(rng, cfg.NumKeys)
		want := drive(New(cfg, trace.NewCodeLayout(), seed), ops)
		newServer := Shared(cfg)
		for fork := 1; fork <= 2; fork++ {
			if got := drive(newServer(trace.NewCodeLayout(), seed), ops); got != want {
				t.Fatalf("case %d (%d keys), fork %d: (fold, Len, LiveBytes) = %#x, New's server %#x", c, cfg.NumKeys, fork, got, want)
			}
		}
	}
}
