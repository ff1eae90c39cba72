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

// windowCounters accumulates raw events within the current window.
type windowCounters struct {
	instrs    uint64
	busyCyc   float64
	totalCyc  float64
	l1dMiss   uint64
	l2Miss    uint64
	llcMiss   uint64
	icMiss    uint64
	itlbMiss  uint64
	dtlbMiss  uint64
	branchMis uint64
	memBytes  uint64
}

// Machine is a single simulated core plus its memory hierarchy. It
// implements trace.Collector: applications run "on" the machine by emitting
// events into it. The machine keeps busy/idle cycle time, closes counter
// windows as simulated time passes, and exposes the collected samples.
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
	win          windowCounters
	samples      []WindowSample
	wall         wallCounters
	wallSamples  []WallSample

	totalBusy float64
	totalIdle float64
	baseCPI   float64
	burstMiss int // index of the miss within the current access burst (MLP)

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

	// warm is non-nil between RecordWarm or RestoreWarm and EndWarm (see
	// tape.go), and then points at head.
	warm *warmHead
	head warmHead
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
	if cfg.L3 != nil {
		m.l3 = NewCache(*cfg.L3)
	}
	m.syncKernel()
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() MachineConfig { return m.cfg }

// WindowCycles returns the configured sampling-window length.
func (m *Machine) WindowCycles() float64 { return m.windowCycles }

// SetLLCPartition restricts the last-level cache to the given number of
// ways, emulating Intel CAT (used by the Dynaway-style curve profiler). On
// machines without an L3, the partition applies to the last-level L2.
func (m *Machine) SetLLCPartition(ways int) {
	if m.l3 != nil {
		m.l3.SetPartition(ways)
	} else {
		m.l2.SetPartition(ways)
	}
	m.syncKernel()
}

// LLCPartitionBytes returns the capacity currently available in the
// last-level cache.
func (m *Machine) LLCPartitionBytes() int {
	if m.l3 != nil {
		return m.l3.PartitionBytes()
	}
	return m.l2.PartitionBytes()
}

// LLCWays returns the associativity of the last-level cache, i.e. the
// number of CAT partitions the platform supports.
func (m *Machine) LLCWays() int { return m.cfg.LLCWays() }

// Reset restores the machine to the exact state NewMachine would produce,
// while keeping allocated sample buffers and cache arrays. A profiler worker
// can therefore reuse one Machine across partition runs and produce samples
// byte-identical to building a fresh machine per run — the property the
// parallel sweep's determinism test pins down.
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
	m.win = windowCounters{}
	m.wall = wallCounters{}
	m.samples = m.samples[:0]
	m.wallSamples = m.wallSamples[:0]
	m.totalBusy, m.totalIdle = 0, 0
	m.burstMiss = 0
	m.warm = nil
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

// ReserveSamples grows the sample buffers to hold at least windows entries
// without reallocating, so a measured run appends into preallocated space.
func (m *Machine) ReserveSamples(windows int) {
	if cap(m.samples) < windows {
		s := make([]WindowSample, len(m.samples), windows)
		copy(s, m.samples)
		m.samples = s
	}
	if cap(m.wallSamples) < windows {
		w := make([]WallSample, len(m.wallSamples), windows)
		copy(w, m.wallSamples)
		m.wallSamples = w
	}
}

// busy advances busy time by cyc cycles. During a taped warm it adds only
// to the busy totals — the machine's and, while recording, every lane's:
// EndWarm flushes the warm's windows, so the window bookkeeping would be
// thrown away.
func (m *Machine) busy(cyc float64) {
	if h := m.warm; h != nil {
		m.totalBusy += cyc
		for i := range h.lanes {
			h.lanes[i].busy += cyc
		}
		return
	}
	m.win.busyCyc += cyc
	m.win.totalCyc += cyc
	m.wall.busyCyc += cyc
	m.wall.totalCyc += cyc
	m.totalBusy += cyc
	m.maybeCloseWindow()
	m.maybeCloseWall()
}

// Idle advances simulated wall-clock time without executing instructions —
// the server waiting for the next request. Idle time never closes a window
// (hardware cycle counters are unhalted-cycle based, so sampling intervals
// elapse only while the thread runs); it stretches the current window's
// wall-clock span, which is what turns request arrival processes into
// CPU-utilization and bandwidth distributions.
func (m *Machine) Idle(cyc float64) {
	if cyc <= 0 {
		return
	}
	m.win.totalCyc += cyc
	m.totalIdle += cyc
	// The wall-clock stream splits long idle periods at window boundaries
	// so each wall window carries an accurate utilization sample.
	for cyc > 0 {
		room := m.windowCycles - m.wall.totalCyc
		step := cyc
		if step > room {
			step = room
		}
		m.wall.totalCyc += step
		cyc -= step
		m.maybeCloseWall()
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

// maybeCloseWindow emits a sample once the current window's busy (unhalted)
// cycles reach the window length, mirroring hardware counter sampling.
func (m *Machine) maybeCloseWindow() {
	if m.win.busyCyc < m.windowCycles {
		return
	}
	m.samples = append(m.samples, m.snapshot())
	m.win = windowCounters{}
}

// maybeCloseWall emits a wall-clock sample once elapsed (busy + idle)
// cycles reach the window length.
func (m *Machine) maybeCloseWall() {
	if m.wall.totalCyc < m.windowCycles {
		return
	}
	w := m.wall
	seconds := w.totalCyc / m.cfg.CyclesPerSecond()
	m.wallSamples = append(m.wallSamples, WallSample{
		CPUUtil:  w.busyCyc / w.totalCyc,
		MemBWGBs: float64(w.memBytes) / seconds / 1e9,
	})
	m.wall = wallCounters{}
}

// snapshot reduces the current window's raw counters to Table I metrics.
func (m *Machine) snapshot() WindowSample {
	w := m.win
	s := WindowSample{Instructions: w.instrs}
	if w.instrs > 0 {
		k := float64(w.instrs) / 1000
		s.L1DMPKI = float64(w.l1dMiss) / k
		s.L2MPKI = float64(w.l2Miss) / k
		s.LLCMPKI = float64(w.llcMiss) / k
		s.ICacheMPKI = float64(w.icMiss) / k
		s.ITLBMPKI = float64(w.itlbMiss) / k
		s.DTLBMPKI = float64(w.dtlbMiss) / k
		s.BranchMPKI = float64(w.branchMis) / k
	}
	if w.busyCyc > 0 {
		s.IPC = float64(w.instrs) / w.busyCyc
	}
	if w.totalCyc > 0 {
		s.CPUUtil = w.busyCyc / w.totalCyc
		seconds := w.totalCyc / m.cfg.CyclesPerSecond()
		s.MemBWGBs = float64(w.memBytes) / seconds / 1e9
	}
	return s
}

// Samples returns the completed busy-cycle counter windows. The returned
// slice is the machine's own; callers must copy before mutating.
func (m *Machine) Samples() []WindowSample { return m.samples }

// WallSamples returns the completed wall-clock windows (CPU utilization and
// memory bandwidth).
func (m *Machine) WallSamples() []WallSample { return m.wallSamples }

// FlushSamples discards collected windows and any partial window, keeping
// cache/TLB/predictor state warm — used between the profiler's warmup and
// measurement phases.
func (m *Machine) FlushSamples() {
	m.samples = m.samples[:0]
	m.wallSamples = m.wallSamples[:0]
	m.win = windowCounters{}
	m.wall = wallCounters{}
}

// TotalCycles returns all simulated cycles (busy + idle).
func (m *Machine) TotalCycles() float64 { return m.totalBusy + m.totalIdle }

// BusyCycles returns the simulated busy cycles.
func (m *Machine) BusyCycles() float64 { return m.totalBusy }
