// Package trace defines the abstract execution-event vocabulary that
// connects the application substrates (key-value store, OLTP database,
// search engine, neural-network engine) to the microarchitecture simulator.
//
// Applications are real Go data structures, but every semantically
// significant action also emits events — data loads/stores at simulated
// virtual addresses, instruction-block executions, and branches — into a
// Collector. The simulator implements Collector and turns the event stream
// into the performance-counter samples Datamime profiles. This is the
// reproduction's substitute for hardware performance counters: the paper
// only ever consumes counter sample distributions, so any substrate that
// maps (program, dataset) to counter distributions with rich dataset-
// dependent structure exercises the identical search pipeline.
package trace

// Collector consumes execution events. Implementations must be cheap: apps
// emit one call per touched cache region, not per instruction.
type Collector interface {
	// Load records a data read of size bytes at the simulated address.
	Load(addr uint64, size int)
	// Store records a data write of size bytes at the simulated address.
	Store(addr uint64, size int)
	// Exec records the execution of instrs dynamic instructions within the
	// given code region (instruction-cache footprint).
	Exec(r *CodeRegion, instrs int)
	// Branch records a conditional branch at the given static site and its
	// outcome. Branches also count as one instruction.
	Branch(site uint64, taken bool)
	// Ops records n plain ALU/compute instructions with no memory traffic.
	Ops(n int)
}

// CodeRegion is a contiguous stretch of instruction memory belonging to one
// function or code path. Regions are laid out by a CodeLayout so distinct
// program functions occupy distinct i-cache lines; the amount and diversity
// of code a dataset exercises is what drives the instruction-footprint
// metrics (ICache MPKI, ITLB MPKI) that distinguish e.g. mem-fb from the
// Tailbench default dataset in Fig. 1.
type CodeRegion struct {
	Name  string
	Base  uint64 // starting virtual address, line-aligned
	Lines int    // footprint in 64-byte i-cache lines
	// cursor tracks loop position across Exec calls so repeated executions
	// walk the region cyclically (a loop body re-touches its own lines).
	cursor int
}

// LineSize is the cache-line size in bytes used throughout the simulator.
const LineSize = 64

// InstrBytesPerLine is how many dynamic instructions map onto one i-cache
// line fetch (64-byte lines, ~4-byte x86 instructions, ~16 instrs/line).
const InstrBytesPerLine = 16

// NextLines returns the sequence positions (line indices within the region)
// that executing instrs instructions touches, advancing the region cursor.
// The caller converts indices to addresses. A tiny region executing many
// instructions wraps around — re-touching hot lines, which naturally makes
// loops i-cache friendly.
func (r *CodeRegion) NextLines(instrs int) (startLine, nLines int) {
	if r.Lines <= 0 {
		return 0, 0
	}
	n := instrs / InstrBytesPerLine
	if n < 1 {
		n = 1
	}
	if n > r.Lines {
		n = r.Lines // distinct lines touched saturate at the footprint
	}
	start := r.cursor
	r.cursor = (r.cursor + n) % r.Lines
	return start, n
}

// LineAddr returns the address of the i-th line of the region (mod its
// footprint).
func (r *CodeRegion) LineAddr(i int) uint64 {
	return r.Base + uint64(i%r.Lines)*LineSize
}

// CodeLayout allocates code regions in a simulated text segment.
type CodeLayout struct {
	next uint64
}

// codeBase is where the simulated text segment starts (mirrors a typical
// Linux executable load address).
const codeBase = 0x0000000000400000

// NewCodeLayout returns an empty layout at the default text base.
func NewCodeLayout() *CodeLayout {
	return &CodeLayout{next: codeBase}
}

// NewCodeLayoutAt returns an empty layout starting at the given base,
// rounded up to a line boundary. Used to place code that must not share
// lines with the main text segment (e.g., the simulated kernel network
// stack).
func NewCodeLayoutAt(base uint64) *CodeLayout {
	if rem := base % LineSize; rem != 0 {
		base += LineSize - rem
	}
	return &CodeLayout{next: base}
}

// Region allocates a code region of the given size in bytes (rounded up to
// whole lines, minimum one line).
func (cl *CodeLayout) Region(name string, bytes int) *CodeRegion {
	lines := (bytes + LineSize - 1) / LineSize
	if lines < 1 {
		lines = 1
	}
	r := &CodeRegion{Name: name, Base: cl.next, Lines: lines}
	cl.next += uint64(lines) * LineSize
	// Pad between regions by one line so regions never share a line.
	cl.next += LineSize
	return r
}

// Null is a Collector that discards all events; useful for constructing
// datasets without profiling them.
type Null struct{}

// Load discards the event.
func (Null) Load(uint64, int) {}

// Store discards the event.
func (Null) Store(uint64, int) {}

// Exec advances the region cursor (so behavior matches a real collector)
// but records nothing.
func (Null) Exec(r *CodeRegion, instrs int) { r.NextLines(instrs) }

// Branch discards the event.
func (Null) Branch(uint64, bool) {}

// Ops discards the event.
func (Null) Ops(int) {}

// Recorder is a Collector that tallies events; application unit tests use
// it to assert that operations emit sensible traffic.
type Recorder struct {
	Loads, Stores   int
	LoadBytes       int
	StoreBytes      int
	Instrs          int
	Branches        int
	Taken           int
	ExecCalls       int
	DistinctRegions map[string]bool
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{DistinctRegions: make(map[string]bool)}
}

// Load tallies a data read.
func (r *Recorder) Load(_ uint64, size int) {
	r.Loads++
	r.LoadBytes += size
	r.Instrs += InstrsForSize(size)
}

// Store tallies a data write.
func (r *Recorder) Store(_ uint64, size int) {
	r.Stores++
	r.StoreBytes += size
	r.Instrs += InstrsForSize(size)
}

// Exec tallies an instruction-block execution.
func (r *Recorder) Exec(region *CodeRegion, instrs int) {
	r.ExecCalls++
	r.Instrs += instrs
	r.DistinctRegions[region.Name] = true
	region.NextLines(instrs)
}

// Branch tallies a branch.
func (r *Recorder) Branch(_ uint64, taken bool) {
	r.Branches++
	r.Instrs++
	if taken {
		r.Taken++
	}
}

// Ops tallies plain instructions.
func (r *Recorder) Ops(n int) { r.Instrs += n }

// InstrsForSize converts a memory operation size into a dynamic instruction
// count: one 8-byte memory instruction per 8 bytes moved, minimum one. Every
// collector that counts instructions uses it, so their counts agree.
func InstrsForSize(size int) int {
	n := size / 8
	if n < 1 {
		n = 1
	}
	return n
}
