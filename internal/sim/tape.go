package sim

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// This file implements the warm tape. A profile's sweep warms the same
// dataset once per way allocation, and the hierarchy is non-inclusive (no
// back-invalidation), so every level above the LLC — both TLBs, both L1s
// and, on machines with an L3, the L2 — sees the same line stream and takes
// the same decisions whatever the allocation below it, and the LLC sees the
// same probes. So one warm serves the sweep. The recording warm walks the
// hierarchy once and, at every step that reaches the LLC, probes one lane
// per allocation a later run will ask for: a cache of that allocation with
// its own busy total. A lane is charged what a classic warm at its
// allocation charges, in the same order: every busy term the recorder pays
// above the LLC, and its own hit or miss penalty at the LLC (totalBusy is a
// float fold that later feeds workload.Run's serverFree, so order is part
// of the result). The burst position, which indexes the MLP divisor, is
// shared. The seal keeps the levels above the LLC, every lane, the burst
// position and a copy of the recorder's own LLC, which serves a run at the
// recorder's allocation. A later run restores: its server still emits its
// warm, because the warm changes server state, but the machine only counts
// and folds the line steps, and at EndWarm it installs the sealed state. A
// restored machine is bit for bit the machine a classic warm would have
// left once both have flushed the warm's windows (tape_test.go).
//
// Branch, Ops and Idle events touch nothing below the predictor and run
// live in every mode.

// foldPrime mixes line addresses into a warm's stream identity.
const foldPrime = 0x9E3779B97F4A7C15

// WarmMode is how a run's dataset warm ran.
type WarmMode int

const (
	// WarmClassic probes every level: the machine is not in tape mode.
	WarmClassic WarmMode = iota
	// WarmRecord warms classically while carrying the other runs' lanes.
	WarmRecord
	// WarmRestore counts the warm's line steps and installs the sealed state.
	WarmRestore
)

// WarmTape holds one recorded warm. NewWarmTape or Reset names the LLC
// allocations later runs will restore at; RecordWarm fills the tape and its
// EndWarm seals it; from then on the tape is read-only, so any number of
// machines may restore from it concurrently. The caller orders the seal
// before the restores (internal/profile waits on it); a restore that starts
// on an unsealed tape fails at EndWarm.
type WarmTape struct {
	allocs []int
	// sealed is stored by the recording machine after it wrote everything
	// below; restoring machines read the rest only after loading it.
	sealed atomic.Bool

	// lanes are the allocations other than the recorder's, their caches
	// laid out in laneTags and laneState; own is the recorder's LLC and busy
	// total at the seal, kept when an allocation equals the recorder's.
	lanes               []lane
	laneTags, laneState []uint64
	own                 lane
	ownUsed             bool

	// steps and fold identify the recorded line stream: a restore must see
	// as many steps and fold their line addresses to the same value.
	steps, fold uint64
	burst       int

	// State of the levels above the LLC at the seal.
	l1i, l1d, l2 Cache
	itlb, dtlb   tlbState
}

// lane is one LLC allocation's cache and busy total.
type lane struct {
	c    Cache
	busy float64
}

// NewWarmTape returns a blank tape whose recording serves restores at the
// given LLC allocations, in ways; an allocation <= 0 or above the LLC's
// ways is the full cache.
func NewWarmTape(allocs ...int) *WarmTape {
	t := new(WarmTape)
	t.Reset(allocs...)
	return t
}

// Reset blanks the tape for a new recording that serves allocs, keeping its
// storage for the next recording's lanes and images.
func (t *WarmTape) Reset(allocs ...int) {
	t.allocs = append(t.allocs[:0], allocs...)
	t.sealed.Store(false)
}

// warmHead is one machine's position in a taped warm.
type warmHead struct {
	t       *WarmTape
	restore bool
	lanes   []lane // recording: the tape's lanes, charged by busy and recordLLC
	src     *lane  // restoring: the lane to install
	err     error  // restoring: why there is nothing to install
	steps   uint64
	fold    uint64
}

// RecordWarm starts a dataset warm that records t. The machine must be in
// its Reset state with the LLC partition applied, and the warm must end
// with EndWarm.
func (m *Machine) RecordWarm(t *WarmTape) {
	llc := m.kern.llc.c
	cfg := llc.cfg
	sets := cfg.Sets()
	t.lanes, t.ownUsed = t.lanes[:0], false
	lines := 0
	for _, w := range t.allocs {
		if w <= 0 || w > cfg.Ways {
			w = cfg.Ways
		}
		switch {
		case w == llc.partWays:
			t.ownUsed = true
		case t.lane(w) == nil:
			t.lanes = append(t.lanes, lane{})
			t.lanes[len(t.lanes)-1].c.partWays = w
			lines += w * sets
		}
	}
	if cap(t.laneTags) < lines {
		t.laneTags = make([]uint64, lines)
	}
	if cap(t.laneState) < len(t.lanes)*sets {
		t.laneState = make([]uint64, len(t.lanes)*sets)
	}
	off := 0
	for i := range t.lanes {
		c := &t.lanes[i].c
		w := c.partWays
		c.init(cfg, t.laneTags[off:off+w*sets], t.laneState[i*sets:(i+1)*sets])
		c.partWays = w
		off += w * sets
	}
	m.head = warmHead{t: t, lanes: t.lanes}
	m.warm = &m.head
}

// lane returns the tape's lane of a w-way allocation, or nil.
func (t *WarmTape) lane(w int) *lane {
	for i := range t.lanes {
		if t.lanes[i].c.partWays == w {
			return &t.lanes[i]
		}
	}
	return nil
}

// RestoreWarm starts a dataset warm that restores from the sealed t at the
// machine's LLC allocation. The machine must be in its Reset state with the
// LLC partition applied, and the warm must end with EndWarm.
func (m *Machine) RestoreWarm(t *WarmTape) {
	m.head = warmHead{t: t, restore: true}
	h := &m.head
	ways := m.kern.llc.c.partWays
	switch {
	case !t.sealed.Load():
		h.err = errors.New("sim: restoring from a warm tape that is not sealed")
	case t.ownUsed && ways == t.own.c.partWays:
		h.src = &t.own
	default:
		if h.src = t.lane(ways); h.src == nil {
			h.err = fmt.Errorf("sim: the warm tape carries no %d-way LLC", ways)
		}
	}
	m.warm = h
}

// EndWarm ends the warm RecordWarm or RestoreWarm started and flushes its
// windows. After a recording it seals the tape. After a restore it installs
// the sealed state, unless the restored line stream was not the recorded
// one: then the machine's state is meaningless and the error says so.
func (m *Machine) EndWarm() error {
	h := m.warm
	if h == nil {
		return errors.New("sim: EndWarm without RecordWarm or RestoreWarm")
	}
	m.warm = nil
	m.FlushSamples()
	t := h.t
	if !h.restore {
		t.steps, t.fold = h.steps, h.fold
		t.l1i.copyFrom(m.l1i)
		t.l1d.copyFrom(m.l1d)
		if m.kern.hasL3 {
			t.l2.copyFrom(m.l2)
		}
		m.itlb.save(&t.itlb)
		m.dtlb.save(&t.dtlb)
		if t.ownUsed {
			t.own.c.copyFrom(m.kern.llc.c)
			t.own.busy = m.totalBusy
		}
		t.burst = m.burstMiss
		t.sealed.Store(true)
		return nil
	}
	if h.err != nil {
		return h.err
	}
	if h.steps != t.steps || h.fold != t.fold {
		return fmt.Errorf("sim: warm restore diverged from the recorded warm (%d line steps, fold %#x; recorded %d, %#x)",
			h.steps, h.fold, t.steps, t.fold)
	}
	m.l1i.copyFrom(&t.l1i)
	m.l1d.copyFrom(&t.l1d)
	if m.kern.hasL3 {
		m.l2.copyFrom(&t.l2)
	}
	m.itlb.load(&t.itlb)
	m.dtlb.load(&t.dtlb)
	m.kern.llc.c.copyFrom(&h.src.c)
	m.totalBusy = h.src.busy
	m.burstMiss = t.burst
	return nil
}

// see counts a line step and folds its address into the stream identity.
func (h *warmHead) see(la uint64) {
	h.steps++
	h.fold = (h.fold ^ la) * foldPrime
}

// data walks lines first..last of one data access for batchData: through
// the hierarchy when recording, by count alone when restoring.
func (h *warmHead) data(m *Machine, first, last uint64) {
	if !h.restore {
		for la := first; la <= last; la++ {
			h.see(la)
			m.stepData(la)
		}
		return
	}
	for la := first; la <= last; la++ {
		h.see(la)
	}
	// stepData leaves the page of the last line it walked behind.
	m.lastDataPage = last >> m.kern.dtlb.pageLineShift
	m.lastDataPageOK = true
}

// instr walks one instruction line for batchInstr.
func (h *warmHead) instr(m *Machine, la uint64) {
	h.see(la)
	if !h.restore {
		m.stepInstr(la)
		return
	}
	m.lastInstrPage = la >> m.kern.itlb.pageLineShift
	m.lastInstrPageOK = true
}

// recordLLC is a recording warm's LLC step: the recorder probes its own LLC
// and every lane probes its own, each charging its own busy total its own
// hit or miss penalty at the burst position they share. The recorder's
// window counters are not moved: EndWarm flushes them.
func (m *Machine) recordLLC(la uint64) {
	k := &m.kern
	b := 0
	if m.burstMiss > 0 {
		b = 1
	}
	m.burstMiss++
	hit, miss := k.llc.pen[b], k.memPen[b]
	set, tag := la&k.llc.setMask, la>>k.llc.tagShift
	if k.llc.c.access(set, tag) {
		m.totalBusy += hit
	} else {
		m.totalBusy += miss
	}
	lanes := m.warm.lanes
	for i := range lanes {
		ln := &lanes[i]
		if ln.c.access(set, tag) {
			ln.busy += hit
		} else {
			ln.busy += miss
		}
	}
}
