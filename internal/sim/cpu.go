package sim

import (
	"fmt"

	"datamime/internal/trace"
)

// WindowSample is one performance-counter sampling window — the simulated
// analogue of the paper's 20 M-cycle counter reads (§IV). Each field is one
// of the Table I metrics, already reduced to its reported unit.
type WindowSample struct {
	IPC        float64 // instructions per busy cycle
	L1DMPKI    float64
	L2MPKI     float64
	LLCMPKI    float64
	ICacheMPKI float64
	ITLBMPKI   float64
	DTLBMPKI   float64
	BranchMPKI float64
	CPUUtil    float64 // busy cycles / window cycles
	MemBWGBs   float64 // DRAM traffic in GB/s over the window

	Instructions uint64 // raw instruction count, for weighting/debugging
}

// WallSample is one wall-clock sampling window, carrying the system-level
// metrics (CPU utilization and memory bandwidth) that are defined over
// elapsed time rather than unhalted cycles.
type WallSample struct {
	CPUUtil  float64
	MemBWGBs float64
}

// wallCounters accumulates the wall-clock window's raw events.
type wallCounters struct {
	busyCyc  float64
	totalCyc float64
	memBytes uint64
}

// eventCounts are the events counted above the LLC. Every lane sees them
// alike, so they are counted once, cumulatively from Reset, in the main
// lane's window counters, and a lane's window holds their growth since its
// window opened (Lane.base). The one exception is l2Miss on a machine
// whose LLC is the L2: there it is a lane's own count, kept in the lane's
// window counters.
type eventCounts struct {
	instrs    uint64
	l1dMiss   uint64
	l2Miss    uint64
	icMiss    uint64
	itlbMiss  uint64
	dtlbMiss  uint64
	branchMis uint64
}

// windowCounters accumulates a lane's raw events: the machine's cumulative
// event counts (meaningful in the main lane's, see eventCounts) and the
// lane's own cycles and LLC misses within its current window.
type windowCounters struct {
	eventCounts
	busyCyc  float64
	totalCyc float64
	llcMiss  uint64
	memBytes uint64
}

// Lane is one LLC allocation's view of a machine: its LLC, busy and idle
// totals, window and wall counters, and samples. The levels above the LLC,
// the TLBs and the branch predictor are the machine's and walk each event
// once; every live lane probes its own LLC with the event's line and is
// charged its own hit or miss penalty, and every busy cycle the shared
// levels charge, in the order a machine of that allocation alone would
// fold them (float order is part of the result). So a lane's samples and
// totals are, bit for bit, those of a machine partitioned to its
// allocation that saw the same events (lane_test.go). The machine's own
// LLC is its main lane, embedded in Machine; AddLane adds the others.
type Lane struct {
	m    *Machine
	llc  *Cache
	win  windowCounters
	base eventCounts // the machine's counts when the current window opened
	wall wallCounters

	samples     []WindowSample
	wallSamples []WallSample
	totalBusy   float64
	totalIdle   float64
	stopped     bool
}

// Machine is a single simulated core plus its memory hierarchy. It
// implements trace.Collector: applications run "on" the machine by emitting
// events into it. The machine keeps busy/idle cycle time, closes counter
// windows as simulated time passes, and exposes the collected samples —
// those of its main lane, whose methods it promotes, and of every lane
// AddLane gave it.
//
// Machine is not safe for concurrent use; the paper pins and profiles a
// single worker thread, and so do we.
type Machine struct {
	cfg  MachineConfig
	l1i  *Cache
	l1d  *Cache
	l2   *Cache
	l3   *Cache // nil when the machine has no shared LLC
	itlb *TLB
	dtlb *TLB
	bp   *BranchPredictor

	windowCycles float64
	baseCPI      float64
	burstMiss    int  // index of the miss within the current access burst (MLP)
	warming      bool // in Warm: lanes keep only their busy totals

	// Lane is the main lane: the machine's own LLC, at SetLLCPartition's
	// allocation.
	Lane
	// extra are the lanes AddLane added since Reset, spare the ones Reset
	// dropped, whose storage AddLane reuses; live are the lanes not
	// stopped, the ones events probe and charge.
	extra, spare []*Lane
	live         []*Lane

	// kern is the packed batched-access kernel state (see kernel.go).
	// lastDataLine/lastInstrLine track the most recent line touched on each
	// side for same-line coalescing.
	kern            machKernel
	lastDataLine    uint64
	lastInstrLine   uint64
	lastDataPage    uint64
	lastInstrPage   uint64
	lastDataValid   bool
	lastInstrValid  bool
	lastDataPageOK  bool
	lastInstrPageOK bool
}

// NewMachine builds a machine with the given counter-window length in
// cycles. It panics on an invalid configuration: machine configs are static
// program data.
func NewMachine(cfg MachineConfig, windowCycles float64) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if windowCycles <= 0 {
		panic(fmt.Sprintf("sim: windowCycles must be positive, got %g", windowCycles))
	}
	m := &Machine{
		cfg:          cfg,
		l1i:          NewCache(cfg.L1I),
		l1d:          NewCache(cfg.L1D),
		l2:           NewCache(cfg.L2),
		itlb:         NewTLB(cfg.ITLB),
		dtlb:         NewTLB(cfg.DTLB),
		bp:           NewBranchPredictor(cfg.Branch),
		windowCycles: windowCycles,
		baseCPI:      cfg.BaseCPI(),
	}
	m.Lane.m, m.Lane.llc = m, m.l2
	if cfg.L3 != nil {
		m.l3 = NewCache(*cfg.L3)
		m.Lane.llc = m.l3
	}
	m.live = append(m.live, &m.Lane)
	m.syncKernel()
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() MachineConfig { return m.cfg }

// WindowCycles returns the configured sampling-window length.
func (m *Machine) WindowCycles() float64 { return m.windowCycles }

// SetLLCPartition restricts the main lane's last-level cache to the given
// number of ways, emulating Intel CAT (used by the Dynaway-style curve
// profiler). On machines without an L3, the partition applies to the
// last-level L2.
func (m *Machine) SetLLCPartition(ways int) {
	m.Lane.llc.SetPartition(ways)
	m.syncKernel()
}

// LLCPartitionBytes returns the capacity currently available in the main
// lane's last-level cache.
func (m *Machine) LLCPartitionBytes() int { return m.Lane.llc.PartitionBytes() }

// LLCWays returns the associativity of the last-level cache, i.e. the
// number of CAT partitions the platform supports.
func (m *Machine) LLCWays() int { return m.cfg.LLCWays() }

// AddLane gives the machine a lane at an LLC allocation of ways (<= 0 or
// above the LLC's ways is the full cache) and returns it. An allocation
// some lane already has — the main lane's included — is that lane. Lanes
// start cold with the machine: add them right after NewMachine or Reset,
// and after SetLLCPartition, before any event. Reset drops them.
func (m *Machine) AddLane(ways int) *Lane {
	if m.totalBusy != 0 || m.totalIdle != 0 {
		panic("sim: AddLane on a machine that has run; add lanes right after Reset")
	}
	cfg := m.Lane.llc.cfg
	if ways <= 0 || ways > cfg.Ways {
		ways = cfg.Ways
	}
	if ways == m.Lane.llc.partWays {
		return &m.Lane
	}
	for _, ln := range m.extra {
		if ln.llc.partWays == ways {
			return ln
		}
	}
	var ln *Lane
	if n := len(m.spare); n > 0 {
		ln, m.spare = m.spare[n-1], m.spare[:n-1]
	} else {
		ln = &Lane{m: m, llc: new(Cache)}
	}
	sets := cfg.Sets()
	tags, state := ln.llc.tags[:cap(ln.llc.tags)], ln.llc.state[:cap(ln.llc.state)]
	if len(tags) < ways*sets {
		tags = make([]uint64, ways*sets)
	}
	if len(state) < sets {
		state = make([]uint64, sets)
	}
	ln.llc.init(cfg, tags[:ways*sets], state[:sets])
	ln.llc.partWays = ways
	ln.reset()
	m.extra = append(m.extra, ln)
	m.live = append(m.live, ln)
	return ln
}

// Reset restores the machine to the exact state NewMachine would produce,
// while keeping allocated sample buffers, cache arrays and lane storage. A
// profiler can therefore reuse one Machine across profiles and produce
// samples byte-identical to building a fresh machine per profile.
func (m *Machine) Reset() {
	m.l1i.Reset()
	m.l1d.Reset()
	m.l2.Reset()
	if m.l3 != nil {
		m.l3.Reset()
	}
	m.itlb.Reset()
	m.dtlb.Reset()
	m.bp.Flush()
	m.Lane.reset()
	// Spares are taken from the end: the next profile's lanes, added in the
	// same order, get the storage they had.
	for i := len(m.extra) - 1; i >= 0; i-- {
		m.spare = append(m.spare, m.extra[i])
	}
	m.extra = m.extra[:0]
	m.live = append(m.live[:0], &m.Lane)
	m.burstMiss = 0
	m.syncKernel()
}

// ResetWindows is Reset with a new counter-window length: afterwards the
// machine is exactly what NewMachine(m.Config(), windowCycles) builds, so a
// pooled machine serves profilers of any window length.
func (m *Machine) ResetWindows(windowCycles float64) {
	if windowCycles <= 0 {
		panic(fmt.Sprintf("sim: windowCycles must be positive, got %g", windowCycles))
	}
	m.windowCycles = windowCycles
	m.Reset()
}

// Warm runs w's dataset warm on the machine and then flushes every lane.
// The warm's windows are flushed unread, so while it runs the lanes keep
// only their busy totals: the one thing of the warm a later window reads.
func (m *Machine) Warm(w interface{ WarmDataset(trace.Collector) }) {
	m.warming = true
	w.WarmDataset(m)
	m.warming = false
	m.FlushSamples()
}

// FlushSamples flushes every lane (Lane.FlushSamples) — used after the
// dataset warm.
func (m *Machine) FlushSamples() {
	m.Lane.FlushSamples()
	for _, ln := range m.extra {
		ln.FlushSamples()
	}
}

// busy advances every live lane's busy time by cyc cycles.
func (m *Machine) busy(cyc float64) {
	if m.warming {
		for _, ln := range m.live {
			ln.totalBusy += cyc
		}
		return
	}
	for _, ln := range m.live {
		ln.charge(cyc)
	}
}

// reset zeroes the lane's counters and clocks, keeping its sample buffers.
func (ln *Lane) reset() {
	ln.win, ln.base, ln.wall = windowCounters{}, eventCounts{}, wallCounters{}
	ln.samples = ln.samples[:0]
	ln.wallSamples = ln.wallSamples[:0]
	ln.totalBusy, ln.totalIdle = 0, 0
	ln.stopped = false
}

// Ways returns the lane's LLC allocation.
func (ln *Lane) Ways() int { return ln.llc.partWays }

// Stop takes the lane out of the machine's walk: from now on events
// neither probe its LLC nor charge it. Its samples and totals stay
// readable.
func (ln *Lane) Stop() {
	if ln.stopped {
		return
	}
	ln.stopped = true
	m := ln.m
	for i, l := range m.live {
		if l == ln {
			m.live = append(m.live[:i], m.live[i+1:]...)
			return
		}
	}
}

// ReserveSamples grows the sample buffers to hold at least windows entries
// without reallocating, so a measured run appends into preallocated space.
func (ln *Lane) ReserveSamples(windows int) {
	if cap(ln.samples) < windows {
		s := make([]WindowSample, len(ln.samples), windows)
		copy(s, ln.samples)
		ln.samples = s
	}
	if cap(ln.wallSamples) < windows {
		w := make([]WallSample, len(ln.wallSamples), windows)
		copy(w, ln.wallSamples)
		ln.wallSamples = w
	}
}

// charge advances the lane's busy time by cyc cycles.
func (ln *Lane) charge(cyc float64) {
	ln.win.busyCyc += cyc
	ln.win.totalCyc += cyc
	ln.wall.busyCyc += cyc
	ln.wall.totalCyc += cyc
	ln.totalBusy += cyc
	wc := ln.m.windowCycles
	if ln.win.busyCyc >= wc {
		ln.closeWindow()
	}
	if ln.wall.totalCyc >= wc {
		ln.closeWall()
	}
}

// Idle advances the lane's simulated wall-clock time without executing
// instructions — the server waiting for the next request. Idle time never
// closes a window (hardware cycle counters are unhalted-cycle based, so
// sampling intervals elapse only while the thread runs); it stretches the
// current window's wall-clock span, which is what turns request arrival
// processes into CPU-utilization and bandwidth distributions.
func (ln *Lane) Idle(cyc float64) {
	if cyc <= 0 {
		return
	}
	ln.win.totalCyc += cyc
	ln.totalIdle += cyc
	// The wall-clock stream splits long idle periods at window boundaries
	// so each wall window carries an accurate utilization sample.
	wc := ln.m.windowCycles
	for cyc > 0 {
		room := wc - ln.wall.totalCyc
		step := cyc
		if step > room {
			step = room
		}
		ln.wall.totalCyc += step
		cyc -= step
		if ln.wall.totalCyc >= wc {
			ln.closeWall()
		}
	}
}

// missPenalty charges the penalty of a miss serviced at a level (its
// kernelLevel.pen): the first miss of an access burst pays the level's
// latency net of the OOO overlap, back-to-back misses within the burst that
// over the MLP divisor.
func (m *Machine) missPenalty(pen *[2]float64) {
	p := pen[0]
	if m.burstMiss > 0 {
		p = pen[1]
	}
	m.burstMiss++
	m.busy(p)
}

// Load implements trace.Collector.
func (m *Machine) Load(addr uint64, size int) { m.batchData(addr, size) }

// Store implements trace.Collector. Stores and loads traverse the same
// hierarchy; write-allocate means a store miss also fetches the line.
func (m *Machine) Store(addr uint64, size int) { m.batchData(addr, size) }

// Exec implements trace.Collector: it fetches the instruction lines the
// execution touches and accounts the dynamic instructions.
func (m *Machine) Exec(r *trace.CodeRegion, instrs int) { m.batchInstr(r, instrs) }

// Branch implements trace.Collector.
func (m *Machine) Branch(site uint64, taken bool) {
	m.win.instrs++
	m.busy(m.baseCPI)
	if !m.bp.Predict(site, taken) {
		m.win.branchMis++
		m.busy(m.cfg.BranchPenalty)
	}
}

// Ops implements trace.Collector.
func (m *Machine) Ops(n int) {
	if n <= 0 {
		return
	}
	m.win.instrs += uint64(n)
	m.busy(float64(n) * m.baseCPI)
}

// counts returns the machine's cumulative event counts as the lane sees
// them (see eventCounts).
func (ln *Lane) counts() eventCounts {
	c := ln.m.win.eventCounts
	if !ln.m.kern.hasL3 {
		c.l2Miss = ln.win.l2Miss
	}
	return c
}

// closeWindow emits a sample once the lane's current window's busy
// (unhalted) cycles reach the window length, mirroring hardware counter
// sampling, and opens the next window.
func (ln *Lane) closeWindow() {
	c := ln.counts()
	ln.samples = append(ln.samples, ln.snapshot(c))
	ln.base = c
	ln.win.busyCyc, ln.win.totalCyc, ln.win.llcMiss, ln.win.memBytes = 0, 0, 0, 0
}

// closeWall emits a wall-clock sample once elapsed (busy + idle) cycles
// reach the window length.
func (ln *Lane) closeWall() {
	w := ln.wall
	seconds := w.totalCyc / ln.m.cfg.CyclesPerSecond()
	ln.wallSamples = append(ln.wallSamples, WallSample{
		CPUUtil:  w.busyCyc / w.totalCyc,
		MemBWGBs: float64(w.memBytes) / seconds / 1e9,
	})
	ln.wall = wallCounters{}
}

// snapshot reduces the lane's current window, at the machine's counts c,
// to Table I metrics.
func (ln *Lane) snapshot(c eventCounts) WindowSample {
	w, b := &ln.win, &ln.base
	instrs := c.instrs - b.instrs
	s := WindowSample{Instructions: instrs}
	if instrs > 0 {
		k := float64(instrs) / 1000
		s.L1DMPKI = float64(c.l1dMiss-b.l1dMiss) / k
		s.L2MPKI = float64(c.l2Miss-b.l2Miss) / k
		s.LLCMPKI = float64(w.llcMiss) / k
		s.ICacheMPKI = float64(c.icMiss-b.icMiss) / k
		s.ITLBMPKI = float64(c.itlbMiss-b.itlbMiss) / k
		s.DTLBMPKI = float64(c.dtlbMiss-b.dtlbMiss) / k
		s.BranchMPKI = float64(c.branchMis-b.branchMis) / k
	}
	if w.busyCyc > 0 {
		s.IPC = float64(instrs) / w.busyCyc
	}
	if w.totalCyc > 0 {
		s.CPUUtil = w.busyCyc / w.totalCyc
		seconds := w.totalCyc / ln.m.cfg.CyclesPerSecond()
		s.MemBWGBs = float64(w.memBytes) / seconds / 1e9
	}
	return s
}

// Samples returns the lane's completed busy-cycle counter windows. The
// returned slice is the lane's own; callers must copy before mutating.
func (ln *Lane) Samples() []WindowSample { return ln.samples }

// WallSamples returns the lane's completed wall-clock windows (CPU
// utilization and memory bandwidth).
func (ln *Lane) WallSamples() []WallSample { return ln.wallSamples }

// FlushSamples discards the lane's collected windows and any partial
// window, keeping cache/TLB/predictor state warm — used between the
// profiler's warmup and measurement phases.
func (ln *Lane) FlushSamples() {
	ln.samples = ln.samples[:0]
	ln.wallSamples = ln.wallSamples[:0]
	ln.base = ln.counts()
	ln.win.busyCyc, ln.win.totalCyc, ln.win.llcMiss, ln.win.memBytes = 0, 0, 0, 0
	ln.wall = wallCounters{}
}

// TotalCycles returns the lane's simulated cycles (busy + idle).
func (ln *Lane) TotalCycles() float64 { return ln.totalBusy + ln.totalIdle }

// BusyCycles returns the lane's simulated busy cycles.
func (ln *Lane) BusyCycles() float64 { return ln.totalBusy }
