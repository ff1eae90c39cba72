package sim

import "datamime/internal/trace"

// This file implements the batched access kernel — the flattened hot path
// the profiler spends nearly all of its time in. It splits an access into
// its lines once, walks them with an incremental wrap instead of the
// instruction walk's per-line modulo, computes each level's set and tag
// with a shift and a mask, and charges precomputed penalties, while
// producing output bit-for-bit identical to the scalar reference walk over
// stamp-and-generation caches (reference_test.go). The equivalence is
// pinned by kernel_test.go and differential_test.go across every Table II
// machine, random geometries, both replacement policies, and every LLC
// partition.
//
// Bit-identity ground rules the kernel obeys:
//
//   - Window-close cadence is untouched: cycle charges go through the same
//     busy()/missPenalty() calls in the same order, so every counter
//     increment lands in the same sample window as the scalar walk.
//   - Replacement decisions are identical: LRU keeps each set in recency
//     order, which is what the reference's unique stamps encode, and DRRIP
//     fills the first invalid way, else evicts the first max-RRPV way after
//     the one-step aging that collapses the reference's age-until-victim
//     loop.
//   - Same-line coalescing elides only probes that are provably hits with
//     no counter effect (see batchData), and still counts them in the
//     cache/TLB access statistics so Stats() match the scalar walk exactly.

// lineShift is log2(trace.LineSize); kernel walks operate on line addresses
// (byte address >> lineShift). The index below is a compile error unless
// the two agree.
const lineShift = 6

var _ = [1]struct{}{}[trace.LineSize-1<<lineShift]

// kernelLevel is one cache level as the walk sees it: the set/tag split,
// the penalty a hit here charges, and the cache (cache.go), whose access
// method holds both policies. The split is computed once per line step and
// shared by every cache of the level's geometry — every lane probes its LLC
// with the LLC's split.
type kernelLevel struct {
	c        *Cache
	setMask  uint64
	tagShift uint8
	// pen is the miss penalty of a line served at this level:
	// latency*(1-Overlap) for the first miss of a burst, that over MLP for
	// the rest — the float operations the reference walk runs per miss.
	pen [2]float64
}

// sync packs the level from its cache, whose set count is a power of two
// (MachineConfig.Validate), for a machine with the given overlap and MLP.
func (lv *kernelLevel) sync(c *Cache, latency float64, cfg *MachineConfig) {
	lv.c = c
	lv.setMask = c.setMask
	lv.tagShift = uint8(c.setShift)
	lv.pen = missPenalties(latency, cfg)
}

// missPenalties returns a miss's penalty for a level of the given latency,
// first of its burst and later.
func missPenalties(latency float64, cfg *MachineConfig) [2]float64 {
	p := latency * (1 - cfg.Overlap)
	return [2]float64{p, p / cfg.MLP}
}

// access looks up la (a line address) at this level, updating replacement
// state and installing on a miss.
func (lv *kernelLevel) access(la uint64) bool {
	return lv.c.access(la&lv.setMask, la>>lv.tagShift)
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
	tlbPenalty    float64
	memPen        [2]float64 // miss penalties of a line served by memory
	l1d, l1i, l2  kernelLevel
	llc           kernelLevel // the L3, or the L2 on machines without one
	dtlb, itlb    tlbKernel
}

// syncKernel (re)packs the kernel from the machine's components. It runs at
// construction, after Reset and after SetLLCPartition. It also invalidates
// the coalescing trackers: elision claims must never survive a cache flush.
func (m *Machine) syncKernel() {
	k := &m.kern
	cfg := &m.cfg
	k.l1d.sync(m.l1d, float64(cfg.L1D.LatencyCyc), cfg)
	k.l1i.sync(m.l1i, float64(cfg.L1I.LatencyCyc), cfg)
	k.l2.sync(m.l2, float64(cfg.L2.LatencyCyc), cfg)
	k.dtlb.sync(m.dtlb)
	k.itlb.sync(m.itlb)
	k.hasL3 = m.l3 != nil
	k.llc = k.l2
	if k.hasL3 {
		k.llc.sync(m.l3, float64(cfg.L3.LatencyCyc), cfg)
	}
	// Elision relies on a re-touched MRU line keeping its relative
	// replacement order, which holds for LRU recency but not for a DRRIP L1
	// whose inserted lines sit at distant RRPV until re-touched.
	k.coalesceData = !m.l1d.isDRRIP
	k.coalesceInstr = !m.l1i.isDRRIP
	k.tlbPenalty = cfg.TLBPenalty
	k.memPen = missPenalties(cfg.MemLatency, cfg)
	m.lastDataValid, m.lastInstrValid = false, false
	m.lastDataPageOK, m.lastInstrPageOK = false, false
}

// stepData walks one line through the data-side hierarchy: DTLB, then
// L1D → L2 → L3 → memory, charging the same penalties in the same order as
// the scalar walk. A line on the same page as the immediately preceding
// data access skips the DTLB probe: that page is provably resident and MRU
// (the previous access either hit it or installed it, and nothing else
// touches the data TLB in between), so the probe is a guaranteed hit whose
// re-stamp cannot change LRU recency order. The elided probe still counts
// as an access so TLB statistics match the scalar walk.
func (m *Machine) stepData(la uint64) {
	k := &m.kern
	if page := la >> k.dtlb.pageLineShift; m.lastDataPageOK && page == m.lastDataPage {
		m.dtlb.accesses++
	} else {
		if !k.dtlb.access(la) {
			m.win.dtlbMiss++
			m.busy(k.tlbPenalty)
		}
		m.lastDataPage = page
		m.lastDataPageOK = true
	}
	if k.l1d.access(la) {
		return
	}
	m.win.l1dMiss++
	m.stepBelowL1(la)
}

// stepInstr walks one instruction line: ITLB, then L1I → L2 → L3 → memory,
// with the same same-page ITLB elision as stepData (fetch loops sit on one
// code page for long stretches).
func (m *Machine) stepInstr(la uint64) {
	k := &m.kern
	if page := la >> k.itlb.pageLineShift; m.lastInstrPageOK && page == m.lastInstrPage {
		m.itlb.accesses++
	} else {
		if !k.itlb.access(la) {
			m.win.itlbMiss++
			m.busy(k.tlbPenalty)
		}
		m.lastInstrPage = page
		m.lastInstrPageOK = true
	}
	if k.l1i.access(la) {
		return
	}
	m.win.icMiss++
	m.stepBelowL1(la)
}

// stepBelowL1 walks an L1 miss through the private L2, when there is an
// L3, and the LLC: every live lane probes its own LLC with the line's one
// set/tag split and is charged its own hit or miss penalty, at the burst
// position the lanes share.
func (m *Machine) stepBelowL1(la uint64) {
	k := &m.kern
	if k.hasL3 {
		if k.l2.access(la) {
			m.missPenalty(&k.l2.pen)
			return
		}
		m.win.l2Miss++
	}
	b := 0
	if m.burstMiss > 0 {
		b = 1
	}
	m.burstMiss++
	set, tag := la&k.llc.setMask, la>>k.llc.tagShift
	for _, ln := range m.live {
		if ln.llc.access(set, tag) {
			if m.warming {
				ln.totalBusy += k.llc.pen[b]
				continue
			}
			ln.charge(k.llc.pen[b])
			continue
		}
		if !k.hasL3 {
			ln.win.l2Miss++
		}
		ln.win.llcMiss++
		ln.win.memBytes += trace.LineSize
		ln.wall.memBytes += trace.LineSize
		if m.warming {
			ln.totalBusy += k.memPen[b]
			continue
		}
		ln.charge(k.memPen[b])
	}
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
// re-touch preserves every future replacement decision — re-touching an
// already-MRU line never changes LRU recency order — and the elided probes
// still count as accesses so cache and TLB statistics match the scalar
// walk bit for bit.
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
	for la := first; la <= last; la++ {
		m.stepData(la)
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
		m.stepInstr(la)
		m.lastInstrLine = la
		m.lastInstrValid = true
	}
}
