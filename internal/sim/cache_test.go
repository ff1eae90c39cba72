package sim

import (
	"testing"

	"datamime/internal/stats"
	"datamime/internal/trace"
)

func smallLRU(sizeBytes, ways int) *Cache {
	return NewCache(CacheConfig{Name: "t", SizeBytes: sizeBytes, Ways: ways, Policy: LRU})
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := smallLRU(4096, 4)
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1010) { // same line
		t.Fatal("same-line access missed")
	}
	if c.Access(0x1040) { // next line
		t.Fatal("different-line access hit")
	}
	acc, miss := c.Stats()
	if acc != 4 || miss != 2 {
		t.Fatalf("stats = %d/%d, want 4/2", acc, miss)
	}
}

func TestCacheSets(t *testing.T) {
	cfg := CacheConfig{SizeBytes: 8192, Ways: 4}
	if cfg.Sets() != 32 {
		t.Fatalf("Sets = %d, want 32", cfg.Sets())
	}
	tiny := CacheConfig{SizeBytes: 64, Ways: 4}
	if tiny.Sets() != 1 {
		t.Fatalf("tiny Sets = %d, want 1", tiny.Sets())
	}
}

func TestLRUEviction(t *testing.T) {
	// 1 set, 2 ways: addresses conflict when they map to set 0.
	c := NewCache(CacheConfig{Name: "t", SizeBytes: 128, Ways: 2, Policy: LRU})
	a, b, d := uint64(0), uint64(128), uint64(256)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU
	c.Access(d) // evicts b (LRU)
	if !c.Access(a) {
		t.Fatal("LRU evicted the MRU line")
	}
	if c.Access(b) {
		t.Fatal("LRU failed to evict the LRU line")
	}
}

func TestWorkingSetFitVsOverflow(t *testing.T) {
	c := smallLRU(64<<10, 8) // 64 KB
	lines := (64 << 10) / trace.LineSize
	// Working set exactly fits: after one warm pass, all hits.
	for pass := 0; pass < 3; pass++ {
		misses := 0
		for i := 0; i < lines; i++ {
			if !c.Access(uint64(i * trace.LineSize)) {
				misses++
			}
		}
		if pass > 0 && misses != 0 {
			t.Fatalf("pass %d: %d misses on resident working set", pass, misses)
		}
	}
	// Working set 2x the cache with LRU cyclic scan: ~100% miss.
	c2 := smallLRU(64<<10, 8)
	big := lines * 2
	for pass := 0; pass < 2; pass++ {
		misses := 0
		for i := 0; i < big; i++ {
			if !c2.Access(uint64(i * trace.LineSize)) {
				misses++
			}
		}
		if pass > 0 && misses < big*9/10 {
			t.Fatalf("cyclic overflow scan should thrash LRU: %d/%d misses", misses, big)
		}
	}
}

func TestDRRIPBeatsLRUOnScanMix(t *testing.T) {
	// DRRIP's claim to fame: a hot working set survives a streaming scan.
	mk := func(policy ReplacementPolicy) float64 {
		c := NewCache(CacheConfig{Name: "t", SizeBytes: 32 << 10, Ways: 8, Policy: policy})
		hotLines := 256 // 16 KB hot set: fits comfortably
		scan := uint64(1 << 20)
		hotMisses := 0
		hotAccesses := 0
		for round := 0; round < 200; round++ {
			for i := 0; i < hotLines; i++ {
				hotAccesses++
				if !c.Access(uint64(i * trace.LineSize)) {
					hotMisses++
				}
			}
			// One-shot streaming scan through fresh addresses.
			for i := 0; i < 512; i++ {
				c.Access(scan)
				scan += trace.LineSize
			}
		}
		return float64(hotMisses) / float64(hotAccesses)
	}
	lruMiss := mk(LRU)
	drripMiss := mk(DRRIP)
	if drripMiss >= lruMiss {
		t.Fatalf("DRRIP (%.3f) should protect the hot set better than LRU (%.3f) under scans",
			drripMiss, lruMiss)
	}
}

func TestPartitionShrinksEffectiveCapacity(t *testing.T) {
	c := NewCache(CacheConfig{Name: "llc", SizeBytes: 1 << 20, Ways: 8, Policy: LRU})
	lines := (1 << 20) / trace.LineSize / 2 // working set = half the cache
	missRate := func() float64 {
		misses := 0
		accesses := 0
		for pass := 0; pass < 4; pass++ {
			for i := 0; i < lines; i++ {
				accesses++
				if !c.Access(uint64(i * trace.LineSize)) {
					misses++
				}
			}
		}
		return float64(misses) / float64(accesses)
	}
	full := missRate()
	c.SetPartition(2) // quarter capacity: working set no longer fits
	c.Flush()
	small := missRate()
	if small <= full {
		t.Fatalf("partitioned cache should miss more: full=%.3f part=%.3f", full, small)
	}
	if c.Partition() != 2 {
		t.Fatalf("Partition = %d", c.Partition())
	}
	if c.PartitionBytes() != (1<<20)/4 {
		t.Fatalf("PartitionBytes = %d", c.PartitionBytes())
	}
	// Restoring the full cache.
	c.SetPartition(0)
	if c.Partition() != 8 {
		t.Fatalf("Partition after reset = %d", c.Partition())
	}
}

func TestPartitionFlushesForbiddenWays(t *testing.T) {
	c := NewCache(CacheConfig{Name: "llc", SizeBytes: 4096, Ways: 4, Policy: LRU})
	// Fill all 4 ways of set 0.
	setSpan := uint64(c.Config().Sets() * trace.LineSize)
	for w := uint64(0); w < 4; w++ {
		c.Access(w * setSpan)
	}
	c.SetPartition(1)
	hits := 0
	for w := uint64(0); w < 4; w++ {
		if c.Access(w * setSpan) {
			hits++
		}
	}
	// At most the line in way 0 can still be resident.
	if hits > 1 {
		t.Fatalf("%d hits after shrinking partition to 1 way", hits)
	}
}

func TestCacheFlush(t *testing.T) {
	c := smallLRU(4096, 4)
	c.Access(0)
	c.Flush()
	if acc, miss := c.Stats(); acc != 0 || miss != 0 {
		t.Fatal("Flush did not reset stats")
	}
	if c.Access(0) {
		t.Fatal("Flush did not invalidate lines")
	}
}

// TestCachePanicsOnInvalidConfig pins that NewCache refuses what
// MachineConfig.Validate refuses: the cache has no path for them.
func TestCachePanicsOnInvalidConfig(t *testing.T) {
	for _, cfg := range []CacheConfig{
		{SizeBytes: 0, Ways: 4},
		{SizeBytes: 768, Ways: 4}, // 3 sets
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid cache config %+v did not panic", cfg)
				}
			}()
			NewCache(cfg)
		}()
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || DRRIP.String() != "DRRIP" {
		t.Fatal("policy String broken")
	}
	if ReplacementPolicy(99).String() == "" {
		t.Fatal("unknown policy String empty")
	}
}

func TestTLBBasics(t *testing.T) {
	tlb := NewTLB(TLBConfig{Name: "d", Entries: 64, Ways: 4, PageBytes: 4096})
	if tlb.Access(0x1000) {
		t.Fatal("cold TLB hit")
	}
	if !tlb.Access(0x1800) { // same 4K page
		t.Fatal("same-page access missed")
	}
	if tlb.Access(0x2000) { // next page
		t.Fatal("next-page access hit")
	}
	acc, miss := tlb.Stats()
	if acc != 3 || miss != 2 {
		t.Fatalf("TLB stats %d/%d", acc, miss)
	}
	tlb.Flush()
	if !tlbMisses(tlb, 0x1000) {
		t.Fatal("Flush did not clear entries")
	}
}

func tlbMisses(t *TLB, addr uint64) bool { return !t.Access(addr) }

func TestTLBCapacityBehavior(t *testing.T) {
	tlb := NewTLB(TLBConfig{Name: "d", Entries: 16, Ways: 4, PageBytes: 4096})
	// Touch 8 pages repeatedly: all resident after warmup.
	for pass := 0; pass < 3; pass++ {
		misses := 0
		for p := uint64(0); p < 8; p++ {
			if !tlb.Access(p * 4096) {
				misses++
			}
		}
		if pass > 0 && misses != 0 {
			t.Fatalf("resident pages missed: %d", misses)
		}
	}
	// 64 pages >> 16 entries: high miss rate.
	tlb2 := NewTLB(TLBConfig{Name: "d", Entries: 16, Ways: 4, PageBytes: 4096})
	misses := 0
	const total = 64 * 10
	for pass := 0; pass < 10; pass++ {
		for p := uint64(0); p < 64; p++ {
			if !tlb2.Access(p * 4096) {
				misses++
			}
		}
	}
	if float64(misses)/total < 0.5 {
		t.Fatalf("oversubscribed TLB miss rate too low: %d/%d", misses, total)
	}
}

// TestTLBPanicsOnInvalidConfig pins that NewTLB refuses what
// MachineConfig.Validate refuses: a page must be a power-of-two multiple of
// the line.
func TestTLBPanicsOnInvalidConfig(t *testing.T) {
	for _, cfg := range []TLBConfig{
		{Entries: 0, Ways: 1, PageBytes: 4096},
		{Entries: 64, Ways: 4, PageBytes: 100}, // not a power of two
		{Entries: 64, Ways: 4, PageBytes: 32},  // smaller than a line
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid TLB config %+v did not panic", cfg)
				}
			}()
			NewTLB(cfg)
		}()
	}
}

func TestBranchPredictorLearnsBias(t *testing.T) {
	bp := NewBranchPredictor(BranchConfig{TableBits: 12, HistoryBits: 0})
	// An always-taken branch must be predicted nearly perfectly.
	wrong := 0
	for i := 0; i < 1000; i++ {
		if !bp.Predict(0xabc, true) {
			wrong++
		}
	}
	if wrong > 5 {
		t.Fatalf("always-taken branch mispredicted %d/1000", wrong)
	}
}

func TestBranchPredictorLearnsPattern(t *testing.T) {
	bp := NewBranchPredictor(BranchConfig{TableBits: 12, HistoryBits: 8})
	// Alternating T/NT is learnable with global history.
	wrong := 0
	for i := 0; i < 2000; i++ {
		if !bp.Predict(0x123, i%2 == 0) {
			wrong++
		}
	}
	if float64(wrong)/2000 > 0.1 {
		t.Fatalf("periodic pattern mispredicted %d/2000 with history", wrong)
	}
}

func TestBranchPredictorRandomIsHard(t *testing.T) {
	bp := NewBranchPredictor(BranchConfig{TableBits: 12, HistoryBits: 8})
	rng := stats.NewRNG(99)
	wrong := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if !bp.Predict(0x555, rng.Bool(0.5)) {
			wrong++
		}
	}
	rate := float64(wrong) / n
	if rate < 0.35 || rate > 0.65 {
		t.Fatalf("random branches misprediction rate = %.3f, want ~0.5", rate)
	}
	br, ms := bp.Stats()
	if br != n || int(ms) != wrong {
		t.Fatalf("stats %d/%d", br, ms)
	}
}

func TestBranchPredictorFlush(t *testing.T) {
	bp := NewBranchPredictor(BranchConfig{TableBits: 10, HistoryBits: 4})
	bp.Predict(1, true)
	bp.Flush()
	if br, ms := bp.Stats(); br != 0 || ms != 0 {
		t.Fatal("Flush did not reset stats")
	}
}

func TestBranchPredictorPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid branch config did not panic")
		}
	}()
	NewBranchPredictor(BranchConfig{TableBits: 0})
}

// TestFlushGenerationWraparound forces the reference cache's latent uint32
// generation-counter wrap: after 2^32 flushes the counter would land back
// on 0, where every freshly-zeroed (never-written) line — whose gen is 0 —
// would suddenly read as valid. Flush must detect the wrap, erase stale
// lines for real, and restart at generation 1 so nothing aliases. The
// kernel's caches have no generations: a flush zeroes each set's fill
// count, which the machine-level half checks.
func TestFlushGenerationWraparound(t *testing.T) {
	c := newRefCache(CacheConfig{Name: "L", SizeBytes: 4096, Ways: 4, Policy: LRU})
	// Simulate 2^32-2 intervening flushes, then install lines at the final
	// pre-wrap generation.
	c.gen = ^uint32(0)
	for i := 0; i < 16; i++ {
		c.Access(uint64(i * trace.LineSize))
	}
	c.Flush()
	if c.gen != 1 {
		t.Fatalf("gen %d after wrapping flush, want 1", c.gen)
	}
	for i, ln := range c.lines {
		if ln != (cacheLine{}) {
			t.Fatalf("stale line %d survived the wrapping flush: %+v", i, ln)
		}
	}
	// The aliasing hazard itself: address 0 was resident pre-flush with tag
	// 0 — exactly what a zeroed line holds. It must miss now.
	if c.Access(0) {
		t.Fatal("stale line read as valid after generation wrap")
	}
	// A machine's Reset empties every set, tag 0 included.
	m := NewMachine(Broadwell(), 1e9)
	m.Load(0, 8)
	m.Reset()
	for s := range m.l1d.state {
		if m.l1d.fill(s) != 0 {
			t.Fatalf("set %d holds %d lines after Reset", s, m.l1d.fill(s))
		}
	}
	m.Load(0, 8)
	if _, miss := m.l1d.Stats(); miss != 1 {
		t.Fatalf("post-Reset load should miss once, got %d misses", miss)
	}
}
