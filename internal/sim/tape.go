package sim

import (
	"fmt"
	"sync/atomic"

	"datamime/internal/trace"
)

// This file implements the warm tape. A profile's sweep warms the same
// dataset once per way allocation, and the hierarchy is non-inclusive (no
// back-invalidation), so every level above the LLC — both TLBs, both L1s
// and, on machines with an L3, the L2 — sees the same line stream and takes
// the same decisions whatever the allocation below it. The first warm of a
// sweep therefore records, per line step, what those levels did; every other
// warm replays: it reads the outcome off the tape instead of probing,
// charges the same cycles in the same order (totalBusy is a float fold that
// later feeds workload.Run's serverFree, so order is part of the result),
// probes only its own partitioned LLC, and at the end takes over the
// recorded state of the taped levels. A replayed machine is bit for bit the
// machine a classic warm would have left (tape_test.go).
//
// Branch and Ops events touch nothing below the predictor and run live in
// both modes. Only the kernel walk is taped: the scalar reference walk keeps
// warming classically.

// Outcome of the levels above the LLC for one line step.
const (
	outL1Hit   uint8 = 0 // L1 hit: nothing is charged
	outL2Hit   uint8 = 1 // L1 miss served by the private L2 (machines with an L3)
	outLLC     uint8 = 2 // missed every taped level: the LLC is probed
	outTLBMiss uint8 = 4 // flag: the step's translation missed
	outMask    uint8 = 7
)

// A token is one run of equal outcomes: the outcome in the low three bits,
// the run length minus one above them. A streaming scan is long runs of
// "miss to the LLC", so a tape costs well under a byte per step (under
// 100 KB for a 110 000-key store of 600-byte values, 1.3 M steps), and it
// grows a fixed-size chunk at a time: append-doubling a byte per step showed
// in peak RSS.
const (
	tokenRunShift = 3
	tokenMaxRun   = 1 << (8 - tokenRunShift)
	tapeChunk     = 32 << 10
	foldPrime     = 0x9E3779B97F4A7C15
)

// WarmMode is how BeginWarm decided a dataset warm will run.
type WarmMode int

const (
	// WarmClassic probes every level: the machine is not in tape mode.
	WarmClassic WarmMode = iota
	// WarmRecord warms classically while recording the tape.
	WarmRecord
	// WarmReplay reads the taped levels' decisions off the sealed tape.
	WarmReplay
)

// WarmTape holds one recorded warm. NewWarmTape returns it blank; the first
// machine to BeginWarm it records, its EndWarm seals it, and from then on
// the tape is read-only, so any number of machines may replay it
// concurrently. Machines that arrive while it is being recorded are not made
// to wait: they warm classically, which yields the same machine.
type WarmTape struct {
	// state moves tapeBlank → tapeRecording → tapeSealed. The recording
	// machine alone writes everything below, before it stores tapeSealed;
	// replaying machines read it only after loading tapeSealed.
	state atomic.Int32

	chunks [][]byte
	// steps and fold identify the recorded line stream: a replay must see
	// as many steps and fold their line addresses to the same value.
	steps, fold uint64

	// State of the taped levels at the end of the recorded warm.
	l1i, l1d, l2 cacheState
	itlb, dtlb   tlbState
}

const (
	tapeBlank int32 = iota
	tapeRecording
	tapeSealed
)

// NewWarmTape returns a blank tape.
func NewWarmTape() *WarmTape { return &WarmTape{} }

// tapeHead is one machine's position on a tape: the write head of the
// recording machine or the read head of a replaying one.
type tapeHead struct {
	t      *WarmTape
	replay bool
	out    uint8  // outcome of the current run
	run    int    // record: steps in the open run; replay: steps left in it
	chunk  []byte // replay: the chunk being read
	next   int    // replay: index of the chunk after it
	pos    int    // replay: read offset in chunk
	steps  uint64
	fold   uint64
}

// BeginWarm starts a dataset warm that shares t: replaying it if it is
// sealed, recording it if this machine is the first to ask. The machine must
// be in its Reset state with the LLC partition applied. Unless it returns
// WarmClassic — another machine is still recording, or this one runs the
// scalar reference walk — the warm must end with EndWarm.
func (m *Machine) BeginWarm(t *WarmTape) WarmMode {
	switch {
	case m.scalar:
		return WarmClassic
	case t.state.Load() == tapeSealed:
		m.tape = &tapeHead{t: t, replay: true}
		return WarmReplay
	case t.state.CompareAndSwap(tapeBlank, tapeRecording):
		m.tape = &tapeHead{t: t}
		return WarmRecord
	}
	return WarmClassic
}

// EndWarm ends the warm BeginWarm started. After a recording it seals the
// tape. After a replay it installs the recorded state of the taped levels,
// unless the replayed line stream was not the recorded one: then the
// machine's state is meaningless and the error says so.
func (m *Machine) EndWarm() error {
	h := m.tape
	if h == nil {
		return fmt.Errorf("sim: EndWarm without BeginWarm")
	}
	m.tape = nil
	t := h.t
	if !h.replay {
		h.flush()
		t.steps, t.fold = h.steps, h.fold
		m.l1i.save(&t.l1i)
		m.l1d.save(&t.l1d)
		m.itlb.save(&t.itlb)
		m.dtlb.save(&t.dtlb)
		if m.kern.hasL3 {
			m.l2.save(&t.l2)
		}
		t.state.Store(tapeSealed)
		return nil
	}
	if h.steps != t.steps || h.fold != t.fold {
		return fmt.Errorf("sim: warm replay diverged from the recorded warm (%d line steps, fold %#x; recorded %d, %#x)",
			h.steps, h.fold, t.steps, t.fold)
	}
	m.l1i.load(&t.l1i)
	m.l1d.load(&t.l1d)
	m.itlb.load(&t.itlb)
	m.dtlb.load(&t.dtlb)
	if m.kern.hasL3 {
		m.l2.load(&t.l2)
	}
	return nil
}

// see counts a line step and folds its address into the stream identity.
func (h *tapeHead) see(la uint64) {
	h.steps++
	h.fold = (h.fold ^ la) * foldPrime
}

// put records one step's outcome.
func (h *tapeHead) put(out uint8) {
	if out == h.out && h.run > 0 && h.run < tokenMaxRun {
		h.run++
		return
	}
	h.flush()
	h.out, h.run = out, 1
}

// flush writes the open run to the tape as one token.
func (h *tapeHead) flush() {
	if h.run == 0 {
		return
	}
	t := h.t
	if n := len(t.chunks); n == 0 || len(t.chunks[n-1]) == tapeChunk {
		t.chunks = append(t.chunks, make([]byte, 0, tapeChunk))
	}
	last := &t.chunks[len(t.chunks)-1]
	*last = append(*last, h.out|uint8(h.run-1)<<tokenRunShift)
	h.run = 0
}

// take returns the next recorded outcome. Past the end of the tape it
// returns L1 hits: the step count then differs and EndWarm reports it.
func (h *tapeHead) take() uint8 {
	if h.run == 0 {
		h.load()
	}
	h.run--
	return h.out
}

// load reads the next token.
func (h *tapeHead) load() {
	for h.pos == len(h.chunk) {
		if h.next == len(h.t.chunks) {
			h.out, h.run = outL1Hit, 1
			return
		}
		h.chunk, h.pos = h.t.chunks[h.next], 0
		h.next++
	}
	tok := h.chunk[h.pos]
	h.pos++
	h.out, h.run = tok&outMask, int(tok>>tokenRunShift)+1
}

// data walks lines first..last of one data access for batchData.
func (h *tapeHead) data(m *Machine, first, last uint64) {
	if !h.replay {
		for la := first; la <= last; la++ {
			h.see(la)
			h.put(m.stepData(la))
		}
		return
	}
	for la := first; la <= last; la++ {
		h.see(la)
		m.replayStep(h.take(), la, &m.win.dtlbMiss, &m.win.l1dMiss)
	}
	// stepData leaves the page of the last line it walked behind.
	m.lastDataPage = last >> m.kern.dtlb.pageLineShift
	m.lastDataPageOK = true
}

// instr walks one instruction line for batchInstr.
func (h *tapeHead) instr(m *Machine, la uint64) {
	h.see(la)
	if !h.replay {
		h.put(m.stepInstr(la))
		return
	}
	m.replayStep(h.take(), la, &m.win.itlbMiss, &m.win.icMiss)
	m.lastInstrPage = la >> m.kern.itlb.pageLineShift
	m.lastInstrPageOK = true
}

// replayStep is stepData/stepInstr with the taped levels' decisions read
// off the tape: the same counters move and the same penalties are charged,
// in the same order, and only the LLC is probed.
func (m *Machine) replayStep(out uint8, la uint64, tlbMiss, l1Miss *uint64) {
	k := &m.kern
	if out&outTLBMiss != 0 {
		*tlbMiss++
		m.busy(k.tlbPenalty)
	}
	switch out &^ outTLBMiss {
	case outL1Hit:
		return
	case outL2Hit:
		*l1Miss++
		m.missPenalty(k.l2.latency)
		return
	}
	*l1Miss++
	llc := &k.l2
	if k.hasL3 {
		m.win.l2Miss++
		llc = &k.l3
	}
	if llc.access(la) {
		m.missPenalty(llc.latency)
		return
	}
	if !k.hasL3 {
		m.win.l2Miss++
	}
	m.win.llcMiss++
	m.win.memBytes += trace.LineSize
	m.wall.memBytes += trace.LineSize
	m.missPenalty(k.memLatency)
}
