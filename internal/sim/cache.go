// Package sim implements the trace-driven microarchitecture simulator that
// substitutes for the paper's hardware performance counters. It models
// set-associative caches (with LRU and DRRIP replacement and Intel
// CAT-style way partitioning), TLBs, a global-history branch predictor, and
// a width/penalty pipeline model, for three machines mirroring Table II
// (Broadwell, Zen 2, Silvermont). A Machine consumes trace events and
// produces windowed performance-counter samples — the raw material of
// Datamime's profiles.
package sim

import (
	"fmt"

	"datamime/internal/trace"
)

// ReplacementPolicy selects a cache's replacement algorithm.
type ReplacementPolicy int

const (
	// LRU is least-recently-used replacement.
	LRU ReplacementPolicy = iota
	// DRRIP is dynamic re-reference interval prediction (Jaleel et al.),
	// the policy of the Broadwell L3 in Table II: set-dueling between
	// SRRIP and BRRIP.
	DRRIP
)

func (p ReplacementPolicy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case DRRIP:
		return "DRRIP"
	default:
		return fmt.Sprintf("ReplacementPolicy(%d)", int(p))
	}
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	Ways       int
	Policy     ReplacementPolicy
	LatencyCyc int // access latency added on a hit at this level
}

// Sets returns the number of sets implied by size, ways, and 64-byte lines.
func (c CacheConfig) Sets() int {
	lines := c.SizeBytes / trace.LineSize
	if c.Ways <= 0 || lines < c.Ways {
		return 1
	}
	return lines / c.Ways
}

// cacheLine is one way of one set. A line is valid iff its gen equals the
// cache's current generation; invalidating the whole cache is then a single
// generation bump instead of a multi-megabyte zeroing pass (the Broadwell L3
// alone holds 196 608 lines), which is what makes Machine.Reset cheaper than
// rebuilding. gen 0 never equals the cache generation (which starts at 1),
// so freshly zeroed lines are invalid.
type cacheLine struct {
	tag uint64
	// meta is the LRU stamp (for LRU) or the RRPV (for DRRIP).
	meta uint32
	gen  uint32
}

// Cache is a set-associative cache over 64-byte lines.
type Cache struct {
	cfg      CacheConfig
	sets     int
	ways     int
	lines    []cacheLine // sets × ways
	partWays int         // ways visible to the workload (CAT partition); 0 = all
	// setMask/setShift replace the per-access modulo and division of the
	// set/tag split when the set count is a power of two (true for every
	// Table II cache level); setShift < 0 selects the general path.
	setMask    uint64
	setShift   int
	gen        uint32 // current line generation; lines with a stale gen are invalid
	lruClock   uint32
	accesses   uint64
	misses     uint64
	psel       int  // DRRIP set-dueling policy selector
	duelMask   int  // identifies leader sets
	brripCount int  // BRRIP insertion de-rater
	isDRRIP    bool // cached policy check
}

// rrpvMax is the maximum re-reference prediction value for 2-bit DRRIP.
const rrpvMax = 3

// NewCache builds a cache from its configuration. It panics on
// non-positive sizes or ways — machine configs are static and must be
// valid.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("sim: invalid cache config %+v", cfg))
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		ways:     cfg.Ways,
		lines:    make([]cacheLine, sets*cfg.Ways),
		partWays: cfg.Ways,
		setMask:  uint64(sets - 1),
		setShift: log2OrMinusOne(sets),
		gen:      1,
		duelMask: 31, // every 32nd set leads a policy
		isDRRIP:  cfg.Policy == DRRIP,
	}
	return c
}

// log2OrMinusOne returns log2(n) when n is a positive power of two and -1
// otherwise, signalling that the general modulo path must be used.
func log2OrMinusOne(n int) int {
	if n <= 0 || n&(n-1) != 0 {
		return -1
	}
	s := 0
	for n > 1 {
		n >>= 1
		s++
	}
	return s
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// SetPartition limits the ways the workload may use, emulating Intel CAT
// way-partitioning (the paper uses CAT to measure miss and IPC curves
// across cache allocations, §IV). ways <= 0 or >= total restores the full
// cache. Changing the partition flushes lines in now-forbidden ways.
func (c *Cache) SetPartition(ways int) {
	if ways <= 0 || ways > c.ways {
		ways = c.ways
	}
	if ways < c.partWays {
		// Invalidate lines outside the new partition.
		for s := 0; s < c.sets; s++ {
			base := s * c.ways
			for w := ways; w < c.partWays; w++ {
				c.lines[base+w] = cacheLine{}
			}
		}
	}
	c.partWays = ways
}

// Partition returns the current way allocation.
func (c *Cache) Partition() int { return c.partWays }

// PartitionBytes returns the capacity of the current partition in bytes.
func (c *Cache) PartitionBytes() int {
	return c.sets * c.partWays * trace.LineSize
}

// Access looks up the line containing addr, updating replacement state, and
// reports whether it hit. On a miss the line is installed.
func (c *Cache) Access(addr uint64) (hit bool) {
	c.accesses++
	lineAddr := addr / trace.LineSize
	var set int
	var tag uint64
	if c.setShift >= 0 {
		set = int(lineAddr & c.setMask)
		tag = lineAddr >> uint(c.setShift)
	} else {
		set = int(lineAddr % uint64(c.sets))
		tag = lineAddr / uint64(c.sets)
	}
	base := set * c.ways
	ways := c.lines[base : base+c.partWays]

	for i := range ways {
		if ways[i].gen == c.gen && ways[i].tag == tag {
			c.touch(ways, i)
			return true
		}
	}
	c.misses++
	c.install(ways, set, tag)
	return false
}

// touch updates replacement metadata on a hit.
func (c *Cache) touch(ways []cacheLine, i int) {
	if c.isDRRIP {
		ways[i].meta = 0 // promote to near-immediate re-reference
		return
	}
	c.lruClock++
	ways[i].meta = c.lruClock
}

// install places a new line, evicting per policy.
func (c *Cache) install(ways []cacheLine, set int, tag uint64) {
	// Prefer an invalid way.
	for i := range ways {
		if ways[i].gen != c.gen {
			ways[i] = cacheLine{tag: tag, meta: c.insertMeta(set), gen: c.gen}
			return
		}
	}
	if c.isDRRIP {
		c.installDRRIP(ways, set, tag)
		return
	}
	// LRU eviction: smallest stamp.
	victim := 0
	for i := 1; i < len(ways); i++ {
		if ways[i].meta < ways[victim].meta {
			victim = i
		}
	}
	ways[victim] = cacheLine{tag: tag, meta: c.insertMeta(set), gen: c.gen}
}

// insertMeta returns the replacement metadata for a newly-installed line.
func (c *Cache) insertMeta(set int) uint32 {
	if !c.isDRRIP {
		c.lruClock++
		return c.lruClock
	}
	if c.useBRRIP(set) {
		// BRRIP: insert at distant (rrpvMax) almost always; rarely at
		// rrpvMax-1. Deterministic 1/32 de-rating.
		c.brripCount++
		if c.brripCount%32 == 0 {
			return rrpvMax - 1
		}
		return rrpvMax
	}
	// SRRIP: insert at long re-reference interval.
	return rrpvMax - 1
}

// installDRRIP evicts the first line with RRPV == max, aging until found.
func (c *Cache) installDRRIP(ways []cacheLine, set int, tag uint64) {
	for {
		for i := range ways {
			if ways[i].meta >= rrpvMax {
				// A miss in a leader set trains the dueling counter.
				c.duelTrain(set)
				ways[i] = cacheLine{tag: tag, meta: c.insertMeta(set), gen: c.gen}
				return
			}
		}
		for i := range ways {
			ways[i].meta++
		}
	}
}

// useBRRIP decides the insertion policy for a set: leader sets use their
// fixed policy; follower sets use the policy-selector's winner.
func (c *Cache) useBRRIP(set int) bool {
	switch set & c.duelMask {
	case 0:
		return false // SRRIP leader
	case 1:
		return true // BRRIP leader
	default:
		return c.psel > 0
	}
}

// duelTrain updates the policy selector on leader-set misses: misses in
// SRRIP leaders vote for BRRIP and vice versa.
func (c *Cache) duelTrain(set int) {
	const pselMax = 512
	switch set & c.duelMask {
	case 0: // SRRIP leader missed -> BRRIP gains
		if c.psel < pselMax {
			c.psel++
		}
	case 1: // BRRIP leader missed -> SRRIP gains
		if c.psel > -pselMax {
			c.psel--
		}
	}
}

// Stats returns lifetime accesses and misses.
func (c *Cache) Stats() (accesses, misses uint64) { return c.accesses, c.misses }

// Flush invalidates every line and resets statistics. Invalidation is a
// generation bump, not a zeroing pass: stale lines are overwritten lazily as
// the next run installs into them, so flushing a 12 MB L3 costs the same as
// flushing a 32 KB L1.
func (c *Cache) Flush() {
	c.gen++
	if c.gen == 0 {
		// The generation counter wrapped (once per 2^32 flushes): erase the
		// stale lines for real so none of them can alias a reused generation.
		for i := range c.lines {
			c.lines[i] = cacheLine{}
		}
		c.gen = 1
	}
	c.accesses, c.misses = 0, 0
	c.psel, c.brripCount = 0, 0
}

// Reset restores the cache to the exact state of a freshly-constructed one:
// Flush plus the full way partition and a zeroed LRU clock. Flush alone is
// not enough for run-to-run byte identity — the LRU clock keeps counting
// across flushes, and installed-line stamps embed it.
func (c *Cache) Reset() {
	c.Flush()
	c.partWays = c.ways
	c.lruClock = 0
}

// cacheState is a copy of everything a cache's future behaviour depends on:
// lines, replacement clock, dueling state and statistics. A warm tape seals
// one per level above the LLC (tape.go).
type cacheState struct {
	lines            []cacheLine
	gen              uint32 // generation the copied lines are valid under
	lruClock         uint32
	accesses, misses uint64
	psel, brripCount int
}

// save copies the cache's state into s.
func (c *Cache) save(s *cacheState) {
	s.lines = append([]cacheLine(nil), c.lines...)
	s.gen, s.lruClock = c.gen, c.lruClock
	s.accesses, s.misses = c.accesses, c.misses
	s.psel, s.brripCount = c.psel, c.brripCount
}

// load makes the cache behave exactly as the saved one would. Generations
// are per cache, so valid lines are re-stamped with this cache's and stale
// ones erased rather than left to alias it.
func (c *Cache) load(s *cacheState) {
	for i, ln := range s.lines {
		if ln.gen != s.gen {
			ln = cacheLine{}
		} else {
			ln.gen = c.gen
		}
		c.lines[i] = ln
	}
	c.lruClock = s.lruClock
	c.accesses, c.misses = s.accesses, s.misses
	c.psel, c.brripCount = s.psel, s.brripCount
}
