package sim

import (
	"testing"

	"datamime/internal/trace"
)

// drripCache builds a small DRRIP cache for focused policy tests.
func drripCache(sizeBytes, ways int) *Cache {
	return NewCache(CacheConfig{Name: "l3", SizeBytes: sizeBytes, Ways: ways, Policy: DRRIP})
}

// TestDRRIPHitPromotion: a re-referenced line must survive longer than
// never-referenced ones (RRPV promoted to 0 on hit).
func TestDRRIPHitPromotion(t *testing.T) {
	// Single set, 4 ways.
	c := drripCache(4*trace.LineSize, 4)
	setSpan := uint64(trace.LineSize)
	addr := func(i int) uint64 { return uint64(i) * setSpan }
	// Fill the set, re-touch line 0 (promote), then insert two new lines.
	for i := 0; i < 4; i++ {
		c.Access(addr(i))
	}
	c.Access(addr(0)) // promote to RRPV 0
	c.Access(addr(4))
	c.Access(addr(5))
	if !c.Access(addr(0)) {
		t.Fatal("promoted line was evicted before distant lines")
	}
}

// TestDRRIPInsertsAtDistantInterval: fresh insertions are predicted
// "long/distant re-reference", so a one-shot scan does not displace a hot
// set the way LRU's MRU insertion would.
func TestDRRIPInsertsAtDistantInterval(t *testing.T) {
	c := drripCache(8*trace.LineSize, 8) // one set of 8 ways
	setSpan := uint64(trace.LineSize)
	// Hot lines 0..3, touched twice so their RRPV is 0.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 4; i++ {
			c.Access(uint64(i) * setSpan)
		}
	}
	// Scan 8 one-shot lines through the same set: they fill the empty ways
	// and then evict each other (inserted at distant RRPV), not the
	// promoted hot lines. (An unboundedly long scan would eventually age
	// out an un-retouched hot set — correct SRRIP behavior.)
	for i := 10; i < 18; i++ {
		c.Access(uint64(i) * setSpan)
	}
	hits := 0
	for i := 0; i < 4; i++ {
		if resident(c, 0, uint64(i)) {
			hits++
		}
	}
	if hits != 4 {
		t.Fatalf("only %d/4 hot lines survived a one-shot scan under DRRIP", hits)
	}
}

// resident inspects cache state non-destructively.
func resident(c *Cache, set int, tag uint64) bool {
	_, ok := rrpvOf(c, set, tag)
	return ok
}

// rrpvOf returns the RRPV of a resident line of a DRRIP cache.
func rrpvOf(c *Cache, set int, tag uint64) (uint64, bool) {
	ways := c.tags[set*c.partWays:][:c.fill(set)]
	for i, t := range ways {
		if t == tag {
			return c.state[set] >> (2 * i) & rrpvMax, true
		}
	}
	return 0, false
}

// TestBRRIPDeRating: the BRRIP leader sets insert at RRPV max-1 only every
// 32nd insertion; verify the deterministic de-rater cycles.
func TestBRRIPDeRating(t *testing.T) {
	c := drripCache(64*trace.LineSize, 4) // 16 sets; set 1 is the BRRIP leader
	// Insert 64 distinct lines into leader set 1 (set index = line % sets).
	longCount, distantCount := 0, 0
	for k := 0; k < 64; k++ {
		tag := uint64(k)
		addr := (tag*uint64(c.sets) + 1) * trace.LineSize // maps to set 1
		c.Access(addr)
		if m, ok := rrpvOf(c, 1, tag); ok {
			if m == rrpvMax {
				distantCount++
			} else if m == rrpvMax-1 {
				longCount++
			}
		}
	}
	if longCount == 0 {
		t.Fatal("BRRIP leader never de-rated an insertion")
	}
	if distantCount <= longCount {
		t.Fatalf("BRRIP should insert mostly distant: %d distant vs %d long", distantCount, longCount)
	}
}

// TestSetDuelingSelectsWinner: under a pure one-shot scan (BRRIP-friendly),
// the policy selector should drift toward BRRIP; under a reuse-friendly
// pattern it should drift back.
func TestSetDuelingSelectsWinner(t *testing.T) {
	c := drripCache(1<<20, 8) // 2048 sets, leaders every 32 sets
	// Scan-only traffic: every line one-shot. SRRIP leaders keep missing on
	// lines they kept too long; BRRIP leaders miss equally here, so psel
	// movement is slight — but must not crash or stick.
	addr := uint64(0)
	for i := 0; i < 200_000; i++ {
		c.Access(addr)
		addr += trace.LineSize
	}
	_, misses := c.Stats()
	if misses == 0 {
		t.Fatal("scan produced no misses")
	}
	// Reuse traffic: a resident working set.
	c.Flush()
	for pass := 0; pass < 50; pass++ {
		for off := uint64(0); off < 256<<10; off += trace.LineSize {
			c.Access(off)
		}
	}
	acc, misses := c.Stats()
	if float64(misses)/float64(acc) > 0.1 {
		t.Fatalf("resident reuse pattern misses %.2f%% under DRRIP", 100*float64(misses)/float64(acc))
	}
}

// TestDRRIPAgingTerminates: installs into a set whose lines all have low
// RRPV must age until a victim appears (no infinite loop), and evict
// exactly one line.
func TestDRRIPAgingTerminates(t *testing.T) {
	c := drripCache(4*trace.LineSize, 4)
	setSpan := uint64(trace.LineSize)
	// Fill and promote everything to RRPV 0.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 4; i++ {
			c.Access(uint64(i) * setSpan)
		}
	}
	// A new insert must age the set and succeed, evicting exactly one of
	// the four resident lines (inspected non-destructively: probing with
	// Access would itself evict).
	c.Access(9 * setSpan)
	if !resident(c, 0, 9) {
		t.Fatal("new line not installed")
	}
	hits := 0
	for i := 0; i < 4; i++ {
		if resident(c, 0, uint64(i)) {
			hits++
		}
	}
	if hits != 3 {
		t.Fatalf("exactly one victim expected, %d/4 survivors", hits)
	}
}
