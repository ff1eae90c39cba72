// Package workload drives request-driven application substrates against a
// simulated machine: an open-loop load generator with Poisson arrivals (the
// role mutilate and the Tailbench harness play in the paper), a FIFO
// single-worker service model that turns arrival bursts and heavy-tailed
// service times into the CPU-utilization and performance-counter
// distributions Datamime profiles, and an optional kernel network-stack
// model for the multi-machine configuration (§V-F).
package workload

import (
	"context"
	"fmt"

	"datamime/internal/sim"
	"datamime/internal/stats"
	"datamime/internal/trace"
)

// Server is a request-driven application. Implementations process one
// request per Handle call, emitting their execution events into the
// collector. Handle must be deterministic given the RNG stream.
type Server interface {
	// Name identifies the application.
	Name() string
	// Handle services one request.
	Handle(col trace.Collector, rng *stats.RNG)
}

// Benchmark couples a server factory with its load configuration; it is
// what the profiler runs. NewServer is called once per profile — from
// several goroutines at once when candidates are profiled in parallel — and
// every profile gets a server of its own, built from nothing the factory
// shares with another call.
type Benchmark struct {
	// Name identifies the benchmark configuration.
	Name string
	// QPS is the offered load in queries per second.
	QPS float64
	// Network enables the simulated kernel network stack per request
	// (client and server on separate machines, §V-F). When false, requests
	// arrive over shared memory as in the Tailbench integrated setup.
	Network bool
	// NewServer builds a fresh server instance. The layout provides the
	// simulated text segment; seed derives the dataset's RNG streams.
	NewServer func(layout *trace.CodeLayout, seed uint64) Server
}

// Validate reports configuration errors.
func (b Benchmark) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("workload: benchmark without a name")
	}
	if b.QPS <= 0 {
		return fmt.Errorf("workload: benchmark %q needs positive QPS", b.Name)
	}
	if b.NewServer == nil {
		return fmt.Errorf("workload: benchmark %q has no server factory", b.Name)
	}
	return nil
}

// NetworkStack models the per-request kernel networking work of the
// multi-machine configuration: interrupt handling, protocol processing,
// socket buffer copies, and syscall dispatch. It adds instruction footprint
// (kernel code is distinct from application code) and data traffic
// proportional to message sizes.
type NetworkStack struct {
	irq     *trace.CodeRegion
	proto   *trace.CodeRegion
	syscall *trace.CodeRegion
	copyFn  *trace.CodeRegion
	sockBuf uint64
	bufSize int
}

// NewNetworkStack lays out the kernel code and socket buffers. The socket
// buffer lives at a fixed kernel address between the text segment and the
// application heap; every Run builds its own stack for its own Machine, so
// the fixed address is deterministic and collision-free.
func NewNetworkStack(layout *trace.CodeLayout) *NetworkStack {
	const bufSize = 16 << 10
	return &NetworkStack{
		irq:     layout.Region("kernel.irq", 6<<10),
		proto:   layout.Region("kernel.tcpip", 24<<10),
		syscall: layout.Region("kernel.syscall", 8<<10),
		copyFn:  layout.Region("kernel.copy", 2<<10),
		sockBuf: kernelHeapBase,
		bufSize: bufSize,
	}
}

// Receive models packet reception and delivery of a request of the given
// size to user space.
func (n *NetworkStack) Receive(col trace.Collector, size int) {
	col.Exec(n.irq, 400)
	col.Exec(n.proto, 1800)
	col.Exec(n.syscall, 500)
	n.copyBuf(col, size, false)
}

// Send models transmitting a response of the given size.
func (n *NetworkStack) Send(col trace.Collector, size int) {
	col.Exec(n.syscall, 450)
	col.Exec(n.proto, 1500)
	n.copyBuf(col, size, true)
	col.Exec(n.irq, 250)
}

// copyBuf models the user/kernel copy through the socket buffer.
func (n *NetworkStack) copyBuf(col trace.Collector, size int, out bool) {
	if size <= 0 {
		size = 1
	}
	for off := 0; off < size; off += n.bufSize {
		chunk := size - off
		if chunk > n.bufSize {
			chunk = n.bufSize
		}
		if out {
			col.Load(n.sockBuf, chunk)
		} else {
			col.Store(n.sockBuf, chunk)
		}
		col.Branch(n.proto.Base, off+chunk < size)
	}
}

// Warmable is implemented by servers that can pre-touch their resident
// dataset. The profiler warms servers before measuring so runs reflect the
// steady state of a long-running service (the paper profiles production
// servers and Dynaway measures 10 B-cycle intervals; a freshly-constructed
// simulated server would otherwise spend entire measurement windows taking
// cold misses, flattening the cache-sensitivity curves).
//
// The warm is the first phase of a profile's one pass: every lane of the
// machine sees it, so it warms every cache allocation the profile measures.
type Warmable interface {
	// WarmDataset touches the resident dataset once, emitting the loads
	// into col (typically the machine, filling its caches).
	WarmDataset(col trace.Collector)
}

// Compressible is implemented by servers that can report the compression
// ratio of their resident data snapshot. It backs the compression-aware
// dataset-generation extension the paper sketches as future work (§III-D):
// the profiler records the ratio, and a generator with a value-entropy
// parameter can be searched to match it without ever seeing the data.
type Compressible interface {
	// CompressionRatio estimates original/compressed size of the resident
	// dataset (>= 1; 1 = incompressible).
	CompressionRatio() float64
}

// Sizer is implemented by servers whose request/response sizes the network
// stack should reflect; others fall back to a small fixed message.
type Sizer interface {
	// LastMessageSizes returns the sizes, in bytes, of the most recent
	// request and its response.
	LastMessageSizes() (req, resp int)
}

// RunResult summarizes a driver run, or one lane of a pass, over its
// measured phase.
type RunResult struct {
	Requests      int
	WindowsClosed int
	// OfferedQPS and AchievedQPS compare load to throughput; a saturated
	// server achieves less than offered.
	OfferedQPS  float64
	AchievedQPS float64
}

// Run drives the benchmark on the machine until its main lane has closed
// the requested number of counter windows (plus any already closed).
// Arrivals are Poisson at b.QPS; service is FIFO on the machine's single
// simulated core. Returns the run summary.
//
// maxRequests bounds runaway runs (e.g., a mis-parameterized server whose
// requests never fill a window); <= 0 means a generous default.
func Run(m *sim.Machine, b Benchmark, srv Server, windows int, seed uint64, maxRequests int) RunResult {
	var res RunResult
	pass := Pass{Seed: seed, MaxRequests: maxRequests, Lanes: []Lane{{
		Lane:    &m.Lane,
		Windows: windows,
		Stop:    func(r RunResult) { res = r },
	}}}
	_ = pass.Run(context.Background(), m, b, srv) // a background context never ends
	return res
}

// Lane is one LLC allocation a pass measures.
type Lane struct {
	// Lane is the machine lane it reads. Several pass lanes may read one
	// machine lane: a curve point at the main lane's allocation does.
	Lane *sim.Lane
	// Windows is how many windows it measures: it stops at the first
	// request boundary where it has closed that many since its measurement
	// began.
	Windows int
	// Stop, when non-nil, is called at the request boundary where the lane
	// stops, with its result. The machine lane's samples are then the
	// windows it measured (past any it had closed before the pass, which a
	// pass with WarmupWindows flushes), and its server state is what its
	// last request left.
	Stop func(RunResult)
}

// Pass drives one request stream through every lane of a machine: the
// arrival clock and the request RNG are the pass's, so the server handles
// each request once, and the levels above the LLC walk its events once
// (sim.Lane). Each machine lane keeps its own server clock (serverFree) and
// idles on its own, because its busy cycles are its own.
//
// A machine lane measures from the pass's start when WarmupWindows is 0;
// otherwise it flushes its samples at the request boundary after its
// WarmupWindows-th window closes and measures from there, its arrivals and
// serverFree carrying over. A lane stops at its Windows, or, measured or
// not, once the pass has served MaxRequests requests (<= 0 is a generous
// default); a lane that stops before its warmup ends measured nothing. A
// machine lane stops (sim.Lane.Stop) when every lane reading it has, and
// the pass ends when every lane has, leaving the lanes that stopped last
// live.
type Pass struct {
	Lanes         []Lane
	WarmupWindows int
	// Seed derives the arrival and request streams.
	Seed        uint64
	MaxRequests int
}

// passLane is a machine lane's state in a pass.
type passLane struct {
	ln          *sim.Lane
	serverFree  float64 // when the lane's worker becomes free, cycles
	busyBefore  float64
	measuring   bool
	startWin    int // windows closed when measurement began
	startReq    int
	startCycles float64
	open        int // pass lanes reading it that have not stopped
}

// Run drives the pass to its end, or until ctx ends, checked before every
// request; then it returns ctx's error.
func (p Pass) Run(ctx context.Context, m *sim.Machine, b Benchmark, srv Server) error {
	maxRequests := p.MaxRequests
	if maxRequests <= 0 {
		maxRequests = 4_000_000
	}
	arrivalRNG := stats.NewRNG(stats.HashSeed(p.Seed, "arrivals"))
	reqRNG := stats.NewRNG(stats.HashSeed(p.Seed, "requests"))

	cycPerSec := m.Config().CyclesPerSecond()
	meanGapCyc := cycPerSec / b.QPS

	var net *NetworkStack
	if b.Network {
		net = NewNetworkStack(trace.NewCodeLayoutAt(kernelCodeBase))
	}

	var lanes []*passLane
	of := make([]*passLane, len(p.Lanes)) // the machine lane each pass lane reads
	for i, l := range p.Lanes {
		for _, pl := range lanes {
			if pl.ln == l.Lane {
				of[i] = pl
			}
		}
		if of[i] == nil {
			of[i] = &passLane{ln: l.Lane}
			lanes = append(lanes, of[i])
		}
		of[i].open++
	}
	requests := 0
	begin := func(pl *passLane) {
		pl.measuring = true
		pl.startWin, pl.startReq, pl.startCycles = len(pl.ln.Samples()), requests, pl.ln.TotalCycles()
	}
	if p.WarmupWindows <= 0 {
		for _, pl := range lanes {
			begin(pl)
		}
	}
	stopped := make([]bool, len(p.Lanes))
	var arrivalClock float64 // absolute arrival time, cycles
	for {
		live := 0
		for i, l := range p.Lanes {
			if stopped[i] {
				continue
			}
			pl := of[i]
			if requests < maxRequests && (!pl.measuring || len(pl.ln.Samples())-pl.startWin < l.Windows) {
				live++
				continue
			}
			if !pl.measuring {
				pl.ln.FlushSamples()
				begin(pl)
			}
			stopped[i] = true
			if l.Stop != nil {
				res := RunResult{
					Requests:      requests - pl.startReq,
					WindowsClosed: len(pl.ln.Samples()),
					OfferedQPS:    b.QPS,
				}
				if elapsed := pl.ln.TotalCycles() - pl.startCycles; elapsed > 0 {
					res.AchievedQPS = float64(res.Requests) / (elapsed / cycPerSec)
				}
				l.Stop(res)
			}
			pl.open--
		}
		if live == 0 {
			// The last lanes stay live: a single-lane Run leaves its
			// machine as it found it.
			return nil
		}
		for _, pl := range lanes {
			if pl.open == 0 {
				pl.ln.Stop()
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}

		arrivalClock += meanGapCyc * arrivalRNG.ExpFloat64()
		for _, pl := range lanes {
			if pl.open == 0 {
				continue
			}
			if arrivalClock > pl.serverFree {
				// The worker idles until the next request arrives.
				pl.ln.Idle(arrivalClock - pl.serverFree)
				pl.serverFree = arrivalClock
			}
			pl.busyBefore = pl.ln.BusyCycles()
		}
		if net != nil {
			req, _ := messageSizes(srv)
			net.Receive(m, req)
		}
		srv.Handle(m, reqRNG)
		if net != nil {
			_, resp := messageSizes(srv)
			net.Send(m, resp)
		}
		requests++
		for _, pl := range lanes {
			if pl.open == 0 {
				continue
			}
			pl.serverFree += pl.ln.BusyCycles() - pl.busyBefore
			if !pl.measuring && len(pl.ln.Samples()) >= p.WarmupWindows {
				pl.ln.FlushSamples()
				begin(pl)
			}
		}
	}
}

// messageSizes extracts request/response sizes from servers that report
// them, defaulting to small control messages.
func messageSizes(srv Server) (req, resp int) {
	if s, ok := srv.(Sizer); ok {
		return s.LastMessageSizes()
	}
	return 64, 64
}

// Simulated kernel address ranges: kernel text and socket buffers sit
// between the application text segment (0x400000) and the application heap
// (0x10000000), so nothing ever shares cache lines across domains.
const (
	kernelCodeBase = 0x0000000002000000
	kernelHeapBase = 0x0000000008000000
)
