package sim

import "datamime/internal/trace"

// This file implements the batched access kernel — the flattened hot path
// the profiler spends nearly all of its time in. pprof on the way-curve
// sweep shows >90% of samples inside Cache.Access / Cache.install /
// TLB.Access / CodeRegion.LineAddr; the kernel removes the per-access call
// chain, the redundant set/tag recomputation at every level, the multi-pass
// install scans, and the per-line modulo of the instruction walk, while
// producing output bit-for-bit identical to the scalar reference walk
// (scalarDataAccess / scalarExec in cpu.go). The equivalence is pinned by
// kernel_test.go across every Table II machine, replacement policy, and LLC
// partition.
//
// Bit-identity ground rules the kernel obeys:
//
//   - Window-close cadence is untouched: cycle charges go through the same
//     busy()/missPenalty() calls in the same order, so every counter
//     increment lands in the same sample window as the scalar walk.
//   - Replacement decisions are identical: the fused single-pass installs
//     pick the same victim (first invalid way, else first least-recent /
//     first max-RRPV way) and the DRRIP delta-aging below is an exact
//     algebraic collapse of the scalar age-until-victim loop.
//   - Same-line coalescing elides only probes that are provably hits with
//     no counter effect (see batchData), and still counts them in the
//     cache/TLB access statistics so Stats() match the scalar walk exactly.

// lineShift is log2(trace.LineSize); kernel walks operate on line addresses
// (byte address >> lineShift). The index below is a compile error unless
// the two agree.
const lineShift = 6

var _ = [1]struct{}{}[trace.LineSize-1<<lineShift]

// kernelLevel packs one cache level's hot lookup state into a single flat,
// cache-line-friendly struct: the line slab, the set/tag split, the visible
// ways, and the current generation all sit contiguously in the Machine
// instead of behind a *Cache indirection per level. Slow-path state that
// mutates per access (replacement clocks, dueling counters, statistics)
// stays authoritative in the Cache; syncKernel refreshes the packed copies
// whenever structural state changes (construction, Reset, partitioning).
type kernelLevel struct {
	lines    []cacheLine // the cache's slab (sets × ways), never reallocated
	setMask  uint64
	tagShift uint8
	gen      uint32  // copy of Cache.gen, refreshed by syncKernel
	ways     int     // set stride in lines
	partWays int     // ways visible to the workload (CAT partition)
	latency  float64 // hit latency at this level, cycles
	drrip    bool
	c        *Cache // replacement clocks, dueling state, statistics
}

// sync packs the level from its cache, whose set count is a power of two
// (MachineConfig.Validate).
func (lv *kernelLevel) sync(c *Cache) {
	lv.lines = c.lines
	lv.setMask = c.setMask
	lv.tagShift = uint8(c.setShift)
	lv.gen = c.gen
	lv.ways = c.ways
	lv.partWays = c.partWays
	lv.latency = float64(c.cfg.LatencyCyc)
	lv.drrip = c.isDRRIP
	lv.c = c
}

// access looks up la (a line address) at this level, updating replacement
// state and installing on a miss — the fused equivalent of Cache.Access.
// One scan does triple duty: it probes for a hit (tag compared first —
// valid-generation checks almost always pass in steady state, tags almost
// always don't, so the cheap discriminating compare leads), tracks the
// first invalid way, and tracks the replacement victim, so a miss installs
// with no second pass over the set.
func (lv *kernelLevel) access(la uint64) bool {
	c := lv.c
	c.accesses++
	set := la & lv.setMask
	tag := la >> lv.tagShift
	base := int(set) * lv.ways
	end := base + lv.partWays
	ways := lv.lines[base:end:end]
	gen := lv.gen
	if lv.drrip {
		return accessDRRIP(c, ways, int(set), tag, gen)
	}
	for i := range ways {
		w := &ways[i]
		if w.tag == tag && w.gen == gen {
			c.lruClock++
			w.meta = c.lruClock
			return true
		}
	}
	c.misses++
	// Victim scan, second pass: the set is host-cache-resident after the
	// probe, so this costs arithmetic only. First invalid way wins (the
	// scalar install prefers it), else the first way with the smallest
	// stamp — the scalar argmin.
	victim, vstamp := 0, ^uint32(0)
	for i := range ways {
		w := &ways[i]
		if w.gen != gen {
			victim = i
			break
		}
		if w.meta < vstamp {
			victim, vstamp = i, w.meta
		}
	}
	c.lruClock++
	ways[victim] = cacheLine{tag: tag, meta: c.lruClock, gen: gen}
	return false
}

// accessDRRIP is the DRRIP arm of the fused lookup. On a miss with no
// invalid way it collapses the scalar walk's age-until-a-max-RRPV-appears
// loop algebraically: that loop always ages every line by exactly
// rrpvMax-maxMeta and then evicts the first way that held the maximum — so
// one scan finds the victim and one adds the aging delta. duelTrain and
// insertMeta run in the scalar order (train the selector, then read it for
// the insertion policy), and invalid-way fills skip dueling exactly as the
// scalar install does.
func accessDRRIP(c *Cache, ways []cacheLine, set int, tag uint64, gen uint32) bool {
	for i := range ways {
		w := &ways[i]
		if w.tag == tag && w.gen == gen {
			w.meta = 0 // promote to near-immediate re-reference
			return true
		}
	}
	c.misses++
	// Victim scan, second pass on the now host-cache-resident set: first
	// invalid way fills without eviction or dueling (as the scalar install
	// does), else the first way holding the maximum RRPV is the victim.
	victim, maxMeta := 0, uint32(0)
	for i := range ways {
		w := &ways[i]
		if w.gen != gen {
			ways[i] = cacheLine{tag: tag, meta: c.insertMeta(set), gen: gen}
			return false
		}
		if w.meta > maxMeta {
			victim, maxMeta = i, w.meta
		}
	}
	if delta := rrpvMax - maxMeta; delta > 0 {
		for i := range ways {
			ways[i].meta += delta
		}
	}
	c.duelTrain(set)
	ways[victim] = cacheLine{tag: tag, meta: c.insertMeta(set), gen: gen}
	return false
}

// tlbKernel packs a TLB's hot lookup state; the entry slab is the TLB's own
// (never reallocated), so stamps and statistics stay authoritative in the
// TLB while the address split runs on flat local fields. pageLineShift
// converts a line address straight to a page number, skipping the byte
// address round-trip of the scalar walk.
type tlbKernel struct {
	t             *TLB
	entries       []tlbEntry
	setMask       uint64
	pageLineShift uint8
	tagShift      uint8
	pow2Sets      bool
	sets          int
	ways          int
}

// sync packs the kernel view of a TLB whose pages are a power-of-two number
// of cache lines (MachineConfig.Validate); its set count need not be one.
func (k *tlbKernel) sync(t *TLB) {
	k.t = t
	k.entries = t.entries
	k.setMask = t.setMask
	k.pageLineShift = uint8(t.pageShift - lineShift)
	k.pow2Sets = t.setShift >= 0
	if k.pow2Sets {
		k.tagShift = uint8(t.setShift)
	}
	k.sets = t.sets
	k.ways = t.ways
}

// access translates the page containing line address la — the fused
// equivalent of TLB.Access, with the same single-pass LRU probe/install.
// Silvermont's 12-set TLBs take the division branch; every other Table II
// TLB splits by shift and mask.
func (k *tlbKernel) access(la uint64) bool {
	t := k.t
	t.accesses++
	page := la >> k.pageLineShift
	var set int
	var tag uint64
	if k.pow2Sets {
		set = int(page & k.setMask)
		tag = page >> k.tagShift
	} else {
		set = int(page % uint64(k.sets))
		tag = page / uint64(k.sets)
	}
	base := set * k.ways
	end := base + k.ways
	ways := k.entries[base:end:end]
	t.clock++
	victim, victimStamp := 0, ways[0].stamp
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].stamp = t.clock
			return true
		}
		if !ways[i].valid {
			victim, victimStamp = i, 0
		} else if ways[i].stamp < victimStamp {
			victim, victimStamp = i, ways[i].stamp
		}
	}
	t.misses++
	ways[victim] = tlbEntry{tag: tag, stamp: t.clock, valid: true}
	return false
}

// machKernel is the Machine's packed hot-path state: both walk directions'
// levels laid out contiguously, plus the penalty constants, so one struct
// walk covers an access end to end without touching the MachineConfig.
type machKernel struct {
	coalesceData  bool // same-line elision valid on the data side (LRU L1D)
	coalesceInstr bool // same-line elision valid on the instruction side
	hasL3         bool
	l2HitOut      uint8 // outcome of an L2 hit: private with an L3 below, else the LLC itself
	tlbPenalty    float64
	memLatency    float64
	l1d, l2, l3   kernelLevel
	l1i           kernelLevel
	dtlb, itlb    tlbKernel
}

// syncKernel (re)packs the kernel from the machine's components. Every
// machine that passed MachineConfig.Validate is on the kernel path; only
// setScalarPath routes around it. It runs at construction, after Reset
// (generation bumps), and after SetLLCPartition (visible-way changes) — the
// only places structural cache state changes under a Machine. It also
// invalidates the coalescing trackers: elision claims must never survive a
// cache flush.
func (m *Machine) syncKernel() {
	k := &m.kern
	k.l1d.sync(m.l1d)
	k.l2.sync(m.l2)
	k.l1i.sync(m.l1i)
	k.dtlb.sync(m.dtlb)
	k.itlb.sync(m.itlb)
	k.hasL3 = m.l3 != nil
	k.l2HitOut = outLLC
	if k.hasL3 {
		k.l3.sync(m.l3)
		k.l2HitOut = outL2Hit
	}
	// Elision relies on a re-touched MRU line keeping its relative
	// replacement order, which holds for LRU stamps but not for a DRRIP L1
	// whose inserted lines sit at distant RRPV until re-touched.
	k.coalesceData = !k.l1d.drrip
	k.coalesceInstr = !k.l1i.drrip
	k.tlbPenalty = m.cfg.TLBPenalty
	k.memLatency = m.cfg.MemLatency
	m.lastDataValid, m.lastInstrValid = false, false
	m.lastDataPageOK, m.lastInstrPageOK = false, false
}

// setScalarPath routes all events through the scalar reference walk; the
// batched-vs-scalar equivalence tests use it to drive both paths over
// identical streams.
func (m *Machine) setScalarPath(on bool) {
	m.scalar = on
	m.syncKernel()
}

// stepData walks one line through the data-side hierarchy: DTLB, then
// L1D → L2 → L3 → memory, charging the same penalties in the same order as
// the scalar walk. A line on the same page as the immediately preceding
// data access skips the DTLB probe: that page is provably resident and MRU
// (the previous access either hit it or installed it, and nothing else
// touches the data TLB in between), so the probe is a guaranteed hit whose
// re-stamp cannot change LRU recency order. The elided probe still counts
// as an access so TLB statistics match the scalar walk.
//
// The returned outcome says what the levels above the LLC did with the line
// (see tape.go); only a recording warm reads it.
func (m *Machine) stepData(la uint64) (out uint8) {
	k := &m.kern
	if page := la >> k.dtlb.pageLineShift; m.lastDataPageOK && page == m.lastDataPage {
		m.dtlb.accesses++
	} else {
		if !k.dtlb.access(la) {
			m.win.dtlbMiss++
			m.busy(k.tlbPenalty)
			out = outTLBMiss
		}
		m.lastDataPage = page
		m.lastDataPageOK = true
	}
	if k.l1d.access(la) {
		return out
	}
	m.win.l1dMiss++
	if k.l2.access(la) {
		m.missPenalty(k.l2.latency)
		return out | k.l2HitOut
	}
	m.win.l2Miss++
	if k.hasL3 {
		if k.l3.access(la) {
			m.missPenalty(k.l3.latency)
			return out | outLLC
		}
	}
	m.win.llcMiss++
	m.win.memBytes += trace.LineSize
	m.wall.memBytes += trace.LineSize
	m.missPenalty(k.memLatency)
	return out | outLLC
}

// stepInstr walks one instruction line: ITLB, then L1I → L2 → L3 → memory,
// with the same same-page ITLB elision as stepData (fetch loops sit on one
// code page for long stretches). It returns the same outcome stepData does.
func (m *Machine) stepInstr(la uint64) (out uint8) {
	k := &m.kern
	if page := la >> k.itlb.pageLineShift; m.lastInstrPageOK && page == m.lastInstrPage {
		m.itlb.accesses++
	} else {
		if !k.itlb.access(la) {
			m.win.itlbMiss++
			m.busy(k.tlbPenalty)
			out = outTLBMiss
		}
		m.lastInstrPage = page
		m.lastInstrPageOK = true
	}
	if k.l1i.access(la) {
		return out
	}
	m.win.icMiss++
	if k.l2.access(la) {
		m.missPenalty(k.l2.latency)
		return out | k.l2HitOut
	}
	m.win.l2Miss++
	if k.hasL3 {
		if k.l3.access(la) {
			m.missPenalty(k.l3.latency)
			return out | outLLC
		}
	}
	m.win.llcMiss++
	m.win.memBytes += trace.LineSize
	m.wall.memBytes += trace.LineSize
	m.missPenalty(k.memLatency)
	return out | outLLC
}

// batchData is the batched data-side step: it splits the access into its
// cache-line batch once, coalesces a leading line that repeats the most
// recent data access, and walks the rest through stepData. Within one
// access the lines are distinct, so only the first can repeat the previous
// access's trailing line.
//
// The elided probe is provably a DTLB+L1D hit with zero counter and zero
// cycle effect: the previous data access left that line MRU at both, and
// no other event type touches the data-side TLB or L1D. Eliding the
// re-touch preserves every future replacement decision — re-stamping an
// already-MRU line never changes the relative stamp order LRU victims are
// chosen by — and the elided probes still count as accesses so cache and
// TLB statistics match the scalar walk bit for bit.
func (m *Machine) batchData(addr uint64, size int) {
	if size <= 0 {
		return
	}
	instrs := trace.InstrsForSize(size)
	m.win.instrs += uint64(instrs)
	m.busy(float64(instrs) * m.baseCPI)

	first := addr >> lineShift
	last := (addr + uint64(size) - 1) >> lineShift
	m.burstMiss = 0
	if m.kern.coalesceData && m.lastDataValid && first == m.lastDataLine {
		m.dtlb.accesses++
		m.l1d.accesses++
		if first == last {
			return
		}
		first++
	}
	if m.tape != nil {
		m.tape.data(m, first, last)
	} else {
		for la := first; la <= last; la++ {
			m.stepData(la)
		}
	}
	m.lastDataLine = last
	m.lastDataValid = true
}

// batchInstr is the batched instruction-side step. It advances the region
// cursor once, then walks the touched lines with an incremental wrap
// instead of the scalar walk's per-line modulo (the sweep's pprof showed
// CodeRegion.LineAddr's division costing ~10% of total time), coalescing a
// line that repeats the most recent instruction fetch (tight loops in
// one-line regions re-fetch the same line every call).
func (m *Machine) batchInstr(r *trace.CodeRegion, instrs int) {
	if instrs <= 0 {
		return
	}
	m.win.instrs += uint64(instrs)
	m.busy(float64(instrs) * m.baseCPI)

	start, n := r.NextLines(instrs)
	m.burstMiss = 0
	baseLine := r.Base >> lineShift
	idx := start
	coalesce := m.kern.coalesceInstr && m.lastInstrValid
	for i := 0; i < n; i++ {
		if idx >= r.Lines {
			idx -= r.Lines
		}
		la := baseLine + uint64(idx)
		idx++
		if coalesce && la == m.lastInstrLine {
			// Only the first line of the batch can repeat the previous
			// fetch; the rest are distinct by construction.
			m.itlb.accesses++
			m.l1i.accesses++
			coalesce = false
			continue
		}
		coalesce = false
		if m.tape != nil {
			m.tape.instr(m, la)
		} else {
			m.stepInstr(la)
		}
		m.lastInstrLine = la
		m.lastInstrValid = true
	}
}
