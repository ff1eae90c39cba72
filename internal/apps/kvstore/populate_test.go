package kvstore

import (
	"reflect"
	"testing"

	"datamime/internal/stats"
	"datamime/internal/trace"
)

// setPopulated builds the store New builds for cfg and seed the way New
// built it before populate: the same buckets, the same two buffers allocated
// first, the same draws, and one Set per id.
func setPopulated(cfg Config, seed uint64) *Store {
	popRNG := stats.NewRNG(stats.HashSeed(seed, "kv-populate"))
	st := NewStore(max(cfg.NumKeys, 1024), trace.NewCodeLayout())
	st.heap.Alloc(bufBytes) // New's rx and tx buffers
	st.heap.Alloc(bufBytes)
	popRNG.Perm(cfg.NumKeys)
	for id := 0; id < cfg.NumKeys; id++ {
		ks := sizeAtLeast(cfg.KeySize.Sample(popRNG), 4)
		vs := sizeAtLeast(cfg.ValueSize.Sample(popRNG), 1)
		st.Set(trace.Null{}, uint64(id), ks, vs, popRNG.Uint64(), 0)
	}
	return st
}

// sameStore reports the first part of two stores that differs: bucket
// heads, slots, free list, LRU ends, count, heap or a code region's cursor.
func sameStore(t *testing.T, when string, got, want *Store) {
	t.Helper()
	for _, part := range []struct {
		name      string
		got, want any
	}{
		{"heads", got.heads, want.heads},
		{"keys", got.keys, want.keys},
		{"entries", got.entries, want.entries},
		{"free list", got.free, want.free},
		{"LRU ends", [2]int32{got.lruHead, got.lruTail}, [2]int32{want.lruHead, want.lruTail}},
		{"count", got.count, want.count},
		{"heap", got.heap, want.heap},
		{"code regions", got.code, want.code},
	} {
		if !reflect.DeepEqual(part.got, part.want) {
			t.Fatalf("%s: %s differ from the Set-path store's", when, part.name)
		}
	}
}

// TestPopulateIsSetPath: New's store is, field for field, the store one Set
// per id leaves — for a sparse table (300 keys over 1 024 buckets), a full
// one and the Tailbench preset — and after the same churn of gets, sets of
// new and old ids under a memory budget, and deletes, the two stay equal, so
// their chains are in the same order.
func TestPopulateIsSetPath(t *testing.T) {
	sparse := smallConfig()
	sparse.NumKeys = 300
	for _, c := range []oracleConfig{{"sparse", sparse}, {"small", smallConfig()}, {"tailbench", TailbenchDefault()}} {
		got := New(c.cfg, trace.NewCodeLayout(), 5).Store()
		want := setPopulated(c.cfg, 5)
		sameStore(t, c.name+" after population", got, want)

		budget := got.LiveBytes() - got.LiveBytes()/16
		rng := stats.NewRNG(6)
		ids := 2 * c.cfg.NumKeys
		for i := 0; i < 5_000; i++ {
			id := uint64(rng.IntN(ids))
			switch rng.IntN(4) {
			case 0:
				got.Get(trace.Null{}, id)
				want.Get(trace.Null{}, id)
			case 1:
				got.Delete(trace.Null{}, id)
				want.Delete(trace.Null{}, id)
			default:
				ks, vs, fp := 8+rng.IntN(40), 1+rng.IntN(900), rng.Uint64()
				got.Set(trace.Null{}, id, ks, vs, fp, budget)
				want.Set(trace.Null{}, id, ks, vs, fp, budget)
			}
		}
		sameStore(t, c.name+" after churn", got, want)
	}
}
