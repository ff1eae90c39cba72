package sim

import "datamime/internal/trace"

// This file implements the batched access kernel — the flattened hot path
// the profiler spends nearly all of its time in. It splits an access into
// its lines once, walks them with an incremental wrap instead of the
// instruction walk's per-line modulo, and probes the machine's own caches
// and TLBs, each splitting a line address with its own shift and mask
// (Cache.split, TLB.access), and charges the penalties NewMachine computed,
// while producing output bit-for-bit identical to the scalar reference walk
// over stamp-and-generation caches (reference_test.go). The equivalence is
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
//   - Compares are elided only where they provably miss: a cache holds only
//     lines stepped since Reset, so a line at or above the machine's mark
//     (one past the highest line stepped since Reset) is in none of them,
//     and takes the known-miss walk (stepKnownMiss). A miss's replacement
//     decision reads the set's state word and lines, never the compares, so
//     Cache.install is the probe's own miss path.
//   - A taped warm (Machine.Warm) reorders only what nothing reads until
//     it ends: lanes replay the known misses' lines lane by lane, and the
//     L1D and L2 keep ring sets until their first probe.

// lineShift is log2(trace.LineSize); kernel walks operate on line addresses
// (byte address >> lineShift). The index below is a compile error unless
// the two agree.
const lineShift = 6

var _ = [1]struct{}{}[trace.LineSize-1<<lineShift]

// missPenalties returns a miss's penalty for a level of the given latency:
// latency*(1-Overlap) for the first miss of a burst, that over MLP for the
// rest — the float operations the reference walk runs per miss.
func missPenalties(latency float64, cfg *MachineConfig) [2]float64 {
	p := latency * (1 - cfg.Overlap)
	return [2]float64{p, p / cfg.MLP}
}

// forgetLines invalidates the coalescing trackers (batchData, batchInstr,
// and the same-page TLB elision of stepData and stepInstr): an elision claim
// must never survive a cache flush or a repartition. Reset and
// SetLLCPartition call it.
func (m *Machine) forgetLines() {
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
// as an access so TLB statistics match the scalar walk. A line at or above
// the machine's mark is in no cache, and takes the known-miss walk.
func (m *Machine) stepData(la uint64) {
	if page := la >> m.dtlb.pageLineShift; m.lastDataPageOK && page == m.lastDataPage {
		m.dtlb.accesses++
	} else {
		if !m.dtlb.access(la) {
			m.win.dtlbMiss++
			m.busy(m.cfg.TLBPenalty)
		}
		m.lastDataPage = page
		m.lastDataPageOK = true
	}
	m.lines++
	if la >= m.mark {
		m.mark = la + 1
		if m.ring {
			m.l1d.ringInstall(m.l1d.split(la))
		} else {
			m.l1d.install(m.l1d.split(la))
		}
		m.win.l1dMiss++
		m.stepKnownMiss(la)
		return
	}
	if m.ring {
		m.unring()
	}
	if m.l1d.access(m.l1d.split(la)) {
		return
	}
	m.win.l1dMiss++
	m.stepBelowL1(la)
}

// stepInstr walks one instruction line: ITLB, then L1I → L2 → L3 → memory,
// with the same same-page ITLB elision and the same known-miss walk as
// stepData (fetch loops sit on one code page for long stretches).
func (m *Machine) stepInstr(la uint64) {
	if page := la >> m.itlb.pageLineShift; m.lastInstrPageOK && page == m.lastInstrPage {
		m.itlb.accesses++
	} else {
		if !m.itlb.access(la) {
			m.win.itlbMiss++
			m.busy(m.cfg.TLBPenalty)
		}
		m.lastInstrPage = page
		m.lastInstrPageOK = true
	}
	m.lines++
	if la >= m.mark {
		m.mark = la + 1
		m.l1i.install(m.l1i.split(la))
		m.win.icMiss++
		m.stepKnownMiss(la)
		return
	}
	if m.l1i.access(m.l1i.split(la)) {
		return
	}
	m.win.icMiss++
	m.stepBelowL1(la)
}

// burst returns the burst position of the next miss that reaches the LLC —
// 0 for the first of its access, 1 after — and advances it.
func (m *Machine) burst() int {
	b := 0
	if m.burstMiss > 0 {
		b = 1
	}
	m.burstMiss++
	return b
}

// stepBelowL1 walks an L1 miss through the private L2, when there is an
// L3, and the LLC: every live lane probes its own LLC with the line's one
// set/tag split and is charged its own hit or miss penalty, at the burst
// position the lanes share. A machine whose LLC is its L2 counts each
// lane's L2 misses. While the machine warms, a lane is only charged to its
// busy total (see busy), and its LLC misses and memory bytes are not
// counted: the flush that ends the warm zeroes them unread. The first
// probe of the L2 ends its ring sets, and the first of the lanes the tape.
func (m *Machine) stepBelowL1(la uint64) {
	if m.l3 != nil {
		if m.ring {
			m.unring()
		}
		if m.l2.access(m.l2.split(la)) {
			m.missPenalty(&m.l2Pen)
			return
		}
		m.win.l2Miss++
	}
	if m.taping {
		m.endTape()
	}
	b := m.burst()
	set, tag := m.Lane.llc.split(la)
	for _, ln := range m.live {
		if ln.llc.access(set, tag) {
			if m.warming {
				ln.totalBusy += m.llcPen[b]
				continue
			}
			ln.charge(m.llcPen[b])
			continue
		}
		if m.l3 == nil {
			ln.win.l2Miss++
		}
		if m.warming {
			ln.totalBusy += m.memPen[b]
			continue
		}
		ln.memMiss(m.memPen[b])
	}
}

// stepKnownMiss is stepBelowL1 for a line at or above the mark, which no
// cache holds: the line is installed at the L2, when there is an L3, and in
// every live lane's LLC without a compare, and every lane is charged the
// memory penalty at the shared burst position — the penalties, order and
// counts the probing walk would have charged. A taped warm puts the line
// on the tape for the lanes instead, and the penalty on their shared busy
// total.
func (m *Machine) stepKnownMiss(la uint64) {
	m.knownMisses++
	if m.l3 != nil {
		if m.ring {
			m.l2.ringInstall(m.l2.split(la))
		} else {
			m.l2.install(m.l2.split(la))
		}
		m.win.l2Miss++
	}
	pen := m.memPen[m.burst()]
	if m.taping {
		m.warmBusy += pen
		if m.tape = append(m.tape, la); len(m.tape) == tapeLines {
			m.replayTape()
		}
		return
	}
	set, tag := m.Lane.llc.split(la)
	for _, ln := range m.live {
		ln.llc.install(set, tag)
		if m.l3 == nil {
			ln.win.l2Miss++
		}
		if m.warming {
			ln.totalBusy += pen
			continue
		}
		ln.memMiss(pen)
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
// walk bit for bit. A DRRIP L1 turns the elision off: its inserted lines
// sit at distant RRPV until re-touched, so the re-touch is not a no-op.
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
	if !m.l1d.isDRRIP && m.lastDataValid && first == m.lastDataLine {
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
	coalesce := !m.l1i.isDRRIP && m.lastInstrValid
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
