package kvstore

import (
	"testing"

	"datamime/internal/stats"
	"datamime/internal/trace"
)

// fold is a collector that folds every event — its kind, its address (for
// an Exec the region's base plus the line the block starts on), and its size
// or outcome — into one 64-bit value, in order. Two servers with equal folds
// emitted the same event stream.
type fold struct{ h uint64 }

func (f *fold) mix(kind, a, b uint64) {
	for _, v := range [3]uint64{kind, a, b} {
		f.h = (f.h ^ v) * 0x9e3779b97f4a7c15
		f.h ^= f.h >> 29
	}
}

func (f *fold) Load(addr uint64, size int)  { f.mix(1, addr, uint64(size)) }
func (f *fold) Store(addr uint64, size int) { f.mix(2, addr, uint64(size)) }
func (f *fold) Exec(r *trace.CodeRegion, instrs int) {
	start, _ := r.NextLines(instrs)
	f.mix(3, r.Base+uint64(start), uint64(instrs))
}
func (f *fold) Branch(site uint64, taken bool) {
	var t uint64
	if taken {
		t = 1
	}
	f.mix(4, site, t)
}
func (f *fold) Ops(n int) { f.mix(5, uint64(n), 0) }

// observation is everything a run can see of a server: the fold of its
// dataset warm and 30 000 requests, and the state they leave behind.
type observation struct {
	fold             uint64
	ratio            float64
	items            int
	live             uint64
	gets, sets, hits int
}

const oracleRequests = 30_000

func observe(s *Server) observation {
	var col fold
	s.WarmDataset(&col)
	rng := stats.NewRNG(99)
	for i := 0; i < oracleRequests; i++ {
		s.Handle(&col, rng)
	}
	o := observation{fold: col.h, ratio: s.CompressionRatio(), items: s.Store().Len(), live: s.Store().LiveBytes()}
	o.gets, o.sets, o.hits = s.Stats()
	return o
}

type oracleConfig struct {
	name string
	cfg  Config
}

// oracleConfigs are the request mixes the oracle covers: churn, skew and the
// crawler (fresh inserts at chain tails), neither churn nor skew (what a
// generator candidate is), churn heavy enough that the memory limit evicts
// and slots are recycled, and the two presets the harness profiles.
func oracleConfigs() []oracleConfig {
	quiet := smallConfig()
	quiet.ChurnProb, quiet.PopularitySkew = 0, 0
	churny := smallConfig()
	churny.ChurnProb, churny.GetRatio = 0.5, 0.5
	return []oracleConfig{
		{"small", smallConfig()},
		{"small-quiet", quiet},
		{"small-churny", churny},
		{"facebook", FacebookTarget()},
		{"tailbench", TailbenchDefault()},
	}
}

var oracleSeeds = [2]uint64{1, 7}

// oracle holds, per config and seed, what the store emitted before its slots
// were split and its chains threaded (commit 5d6ade4). The literals are what
// says a restructured store is the same store: regenerate them only for a
// change that means to move what a server emits.
var oracle = map[string][2]observation{
	"small": {
		{fold: 0x7bd8c7d4ffcf936c, ratio: 1.1914887660894347, items: 2146, live: 0xa6030, gets: 26997, sets: 3003, hits: 25634},
		{fold: 0xa88c3bd97056c877, ratio: 1.1910659713134184, items: 2146, live: 0xa6260, gets: 26997, sets: 3003, hits: 25634},
	},
	"small-quiet": {
		{fold: 0x8487a9bdfeb6f716, ratio: 1.1907718644720473, items: 2000, live: 0x9d800, gets: 27013, sets: 2987, hits: 27013},
		{fold: 0x58a65157509832cb, ratio: 1.1903446009529928, items: 2000, live: 0x9dc50, gets: 27013, sets: 2987, hits: 27013},
	},
	"small-churny": {
		{fold: 0x3768f4b3aadd04f6, ratio: 1.1910152410836619, items: 2332, live: 0xb1d50, gets: 14923, sets: 15077, hits: 5980},
		{fold: 0x4738f26d20b192e5, ratio: 1.1909348388549974, items: 2334, live: 0xb2030, gets: 14923, sets: 15077, hits: 5993},
	},
	"facebook": {
		{fold: 0xc9d32d772fc9c748, ratio: 2.3068560160777745, items: 110159, live: 0x31efea0, gets: 29045, sets: 955, hits: 24780},
		{fold: 0x39fd52e76cbaca02, ratio: 2.3071793277550934, items: 110159, live: 0x3208990, gets: 29045, sets: 955, hits: 24780},
	},
	"tailbench": {
		{fold: 0x6eb22197a73b163, ratio: 1.02765886682684, items: 40000, live: 0x3b51e80, gets: 14943, sets: 15057, hits: 14943},
		{fold: 0xbf757ff2421b0e68, ratio: 1.0276510055388648, items: 40000, live: 0x3b4e020, gets: 14943, sets: 15057, hits: 14943},
	},
}

// TestOracle: every config at both seeds emits, and ends in, what the
// committed literals say.
func TestOracle(t *testing.T) {
	for _, c := range oracleConfigs() {
		for i, seed := range oracleSeeds {
			got := observe(New(c.cfg, trace.NewCodeLayout(), seed))
			if want := oracle[c.name][i]; got != want {
				t.Errorf("%s seed %d:\n got %#v\nwant %#v", c.name, seed, got, want)
			}
		}
	}
}

// TestOracleStore drives a bare store with long chains (500 ids over 64
// buckets) through inserts, replacements, hits, misses, deletes and
// memory-limit evictions, so the unlink sees heads, middles and tails.
func TestOracleStore(t *testing.T) {
	s := NewStore(64, trace.NewCodeLayout())
	rng := stats.NewRNG(3)
	var col fold
	var budget uint64
	deleted := 0
	for i := 0; i < 20_000; i++ {
		if i == 2_000 {
			budget = s.LiveBytes()
		}
		id := uint64(rng.IntN(500))
		switch rng.IntN(4) {
		case 0:
			s.Get(&col, id)
		case 1:
			if s.Delete(&col, id) {
				deleted++
			}
		default:
			s.Set(&col, id, 8+rng.IntN(40), 1+rng.IntN(900), rng.Uint64(), budget)
		}
	}
	s.WarmScan(&col)
	kb, vb, hb := s.FootprintBreakdown()
	got := [7]uint64{col.h, uint64(s.Len()), s.LiveBytes(), uint64(deleted), uint64(kb), uint64(vb), uint64(hb)}
	want := [7]uint64{0xe50f58b1798e0af8, 0x138, 0x31620, 0xc25, 0x21fc, 0x233d9, 0x3a80}
	if got != want {
		t.Errorf("\n got %#v\nwant %#v", got, want)
	}
}
