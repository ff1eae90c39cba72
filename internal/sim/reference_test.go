package sim

import (
	"fmt"

	"datamime/internal/trace"
)

// This file keeps the simulator's reference implementation: the
// stamp-and-generation cache and the scalar one-line-at-a-time walk the
// batched kernel replaced, kept as they were as the oracle the kernel and
// the warm tape are tested against (kernel_test.go, tape_test.go,
// differential_test.go). Nothing outside the tests runs it.

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

// refCache is a set-associative cache over 64-byte lines.
type refCache struct {
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

// newRefCache builds a cache from its configuration. It panics on
// non-positive sizes or ways — machine configs are static and must be
// valid.
func newRefCache(cfg CacheConfig) *refCache {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("sim: invalid cache config %+v", cfg))
	}
	sets := cfg.Sets()
	c := &refCache{
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

// Config returns the cache's configuration.
func (c *refCache) Config() CacheConfig { return c.cfg }

// SetPartition limits the ways the workload may use, emulating Intel CAT
// way-partitioning (the paper uses CAT to measure miss and IPC curves
// across cache allocations, §IV). ways <= 0 or >= total restores the full
// cache. Changing the partition flushes lines in now-forbidden ways.
func (c *refCache) SetPartition(ways int) {
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
func (c *refCache) Partition() int { return c.partWays }

// PartitionBytes returns the capacity of the current partition in bytes.
func (c *refCache) PartitionBytes() int {
	return c.sets * c.partWays * trace.LineSize
}

// Access looks up the line containing addr, updating replacement state, and
// reports whether it hit. On a miss the line is installed.
func (c *refCache) Access(addr uint64) (hit bool) {
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
func (c *refCache) touch(ways []cacheLine, i int) {
	if c.isDRRIP {
		ways[i].meta = 0 // promote to near-immediate re-reference
		return
	}
	c.lruClock++
	ways[i].meta = c.lruClock
}

// install places a new line, evicting per policy.
func (c *refCache) install(ways []cacheLine, set int, tag uint64) {
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
func (c *refCache) insertMeta(set int) uint32 {
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
func (c *refCache) installDRRIP(ways []cacheLine, set int, tag uint64) {
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
func (c *refCache) useBRRIP(set int) bool {
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
func (c *refCache) duelTrain(set int) {
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
func (c *refCache) Stats() (accesses, misses uint64) { return c.accesses, c.misses }

// Flush invalidates every line and resets statistics. Invalidation is a
// generation bump, not a zeroing pass: stale lines are overwritten lazily as
// the next run installs into them, so flushing a 12 MB L3 costs the same as
// flushing a 32 KB L1.
func (c *refCache) Flush() {
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
func (c *refCache) Reset() {
	c.Flush()
	c.partWays = c.ways
	c.lruClock = 0
}

// refMachine is a Machine whose Load, Store and Exec walk reference caches
// one line at a time. Everything else — TLBs, branch predictor, windows,
// busy/idle accounting — is the embedded Machine's, so a refMachine and a
// Machine fed the same events must produce the same samples bit for bit.
type refMachine struct {
	*Machine
	l1i, l1d, l2, l3 *refCache
}

func newRefMachine(cfg MachineConfig, windowCycles float64) *refMachine {
	m := &refMachine{
		Machine: NewMachine(cfg, windowCycles),
		l1i:     newRefCache(cfg.L1I),
		l1d:     newRefCache(cfg.L1D),
		l2:      newRefCache(cfg.L2),
	}
	if cfg.L3 != nil {
		m.l3 = newRefCache(*cfg.L3)
	}
	return m
}

// Reset is Machine.Reset for the reference caches too.
func (m *refMachine) Reset() {
	m.Machine.Reset()
	for _, c := range []*refCache{m.l1i, m.l1d, m.l2, m.l3} {
		if c != nil {
			c.Reset()
		}
	}
}

// SetLLCPartition partitions the reference last-level cache.
func (m *refMachine) SetLLCPartition(ways int) {
	if m.l3 != nil {
		m.l3.SetPartition(ways)
	} else {
		m.l2.SetPartition(ways)
	}
}

// llc returns the reference last-level cache.
func (m *refMachine) llc() *refCache {
	if m.l3 != nil {
		return m.l3
	}
	return m.l2
}

// missPenalty charges the latency of a miss serviced at a level with the
// given latency, applying the machine's OOO overlap factor and, for
// back-to-back misses within one burst, its MLP divisor.
func (m *refMachine) missPenalty(latency float64) {
	p := latency * (1 - m.cfg.Overlap)
	if m.burstMiss > 0 {
		p /= m.cfg.MLP
	}
	m.burstMiss++
	m.busy(p)
}

// scalarDataAccess walks the data-side hierarchy one line at a time through
// the general-purpose Cache/TLB methods. It is the reference implementation
// the batched kernel (kernel.go) must match bit for bit — a test oracle, not
// a production path: geometries the kernel cannot walk are a
// MachineConfig.Validate error.
func (m *refMachine) scalarDataAccess(addr uint64, size int) {
	if size <= 0 {
		return
	}
	instrs := trace.InstrsForSize(size)
	m.win.instrs += uint64(instrs)
	m.busy(float64(instrs) * m.baseCPI)

	first := addr / trace.LineSize
	last := (addr + uint64(size) - 1) / trace.LineSize
	m.burstMiss = 0
	for line := first; line <= last; line++ {
		la := line * trace.LineSize
		if !m.dtlb.Access(la) {
			m.win.dtlbMiss++
			m.busy(m.cfg.TLBPenalty)
		}
		if m.l1d.Access(la) {
			continue
		}
		m.win.l1dMiss++
		if m.l2.Access(la) {
			m.missPenalty(float64(m.cfg.L2.LatencyCyc))
			continue
		}
		m.win.l2Miss++
		if m.l3 != nil {
			if m.l3.Access(la) {
				m.missPenalty(float64(m.cfg.L3.LatencyCyc))
				continue
			}
		}
		m.win.llcMiss++
		m.win.memBytes += trace.LineSize
		m.wall.memBytes += trace.LineSize
		m.missPenalty(m.cfg.MemLatency)
	}
}

// Load implements trace.Collector.
func (m *refMachine) Load(addr uint64, size int) { m.scalarDataAccess(addr, size) }

// Store implements trace.Collector.
func (m *refMachine) Store(addr uint64, size int) { m.scalarDataAccess(addr, size) }

// Exec implements trace.Collector.
func (m *refMachine) Exec(r *trace.CodeRegion, instrs int) { m.scalarExec(r, instrs) }

// scalarExec is the reference instruction-side walk; see scalarDataAccess.
func (m *refMachine) scalarExec(r *trace.CodeRegion, instrs int) {
	if instrs <= 0 {
		return
	}
	m.win.instrs += uint64(instrs)
	m.busy(float64(instrs) * m.baseCPI)

	start, n := r.NextLines(instrs)
	m.burstMiss = 0
	for i := 0; i < n; i++ {
		la := r.LineAddr(start + i)
		if !m.itlb.Access(la) {
			m.win.itlbMiss++
			m.busy(m.cfg.TLBPenalty)
		}
		if m.l1i.Access(la) {
			continue
		}
		m.win.icMiss++
		if m.l2.Access(la) {
			m.missPenalty(float64(m.cfg.L2.LatencyCyc))
			continue
		}
		m.win.l2Miss++
		if m.l3 != nil {
			if m.l3.Access(la) {
				m.missPenalty(float64(m.cfg.L3.LatencyCyc))
				continue
			}
		}
		m.win.llcMiss++
		m.win.memBytes += trace.LineSize
		m.wall.memBytes += trace.LineSize
		m.missPenalty(m.cfg.MemLatency)
	}
}
