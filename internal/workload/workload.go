// Package workload drives request-driven application substrates against a
// simulated machine: an open-loop load generator with Poisson arrivals (the
// role mutilate and the Tailbench harness play in the paper), a FIFO
// single-worker service model that turns arrival bursts and heavy-tailed
// service times into the CPU-utilization and performance-counter
// distributions Datamime profiles, and an optional kernel network-stack
// model for the multi-machine configuration (§V-F).
package workload

import (
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
// what the profiler runs. NewServer is called once per profiling run —
// from several goroutines at once in a pooled sweep — and every run gets a
// server of its own. A factory may hand its servers built state they only
// read (apps/nn shares one weight build per dataset seed, nn.Shared;
// apps/kvstore one population, kvstore.Shared, copied before a server's
// first write to it); anything a server writes — its dataset if requests
// mutate it, code-region cursors, scratch buffers — must be that server's
// alone, so that a run sees exactly what a freshly built server would show
// it. Built state lives as long as the Benchmark whose factory holds it: a
// generator's per-candidate Benchmark is dropped after its one profile, so
// sharing there holds less than it saves; a Benchmark kept for the life of
// the process (a harness target) keeps its build live with it, and the
// collector sizes its goal by what is live.
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
// Contract: servers built by the same NewServer with the same seed emit the
// same warm events in the same order, whatever the collector — a Collector
// is write-only, so nothing it does can reach the server. The profiler
// relies on it: the runs of a sweep share one recording of the first run's
// warm (sim.WarmTape), and a run whose warm differs fails its profile. Do
// not iterate a Go map while warming.
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

// RunResult summarizes a driver run.
type RunResult struct {
	Requests      int
	WindowsClosed int
	// OfferedQPS and AchievedQPS compare load to throughput; a saturated
	// server achieves less than offered.
	OfferedQPS  float64
	AchievedQPS float64
}

// Run drives the benchmark on the machine until the machine has closed the
// requested number of counter windows (plus any already closed). Arrivals
// are Poisson at b.QPS; service is FIFO on the machine's single simulated
// core. Returns the run summary.
//
// maxRequests bounds runaway runs (e.g., a mis-parameterized server whose
// requests never fill a window); <= 0 means a generous default.
func Run(m *sim.Machine, b Benchmark, srv Server, windows int, seed uint64, maxRequests int) RunResult {
	if maxRequests <= 0 {
		maxRequests = 4_000_000
	}
	arrivalRNG := stats.NewRNG(stats.HashSeed(seed, "arrivals"))
	reqRNG := stats.NewRNG(stats.HashSeed(seed, "requests"))

	cycPerSec := m.Config().CyclesPerSecond()
	meanGapCyc := cycPerSec / b.QPS

	var net *NetworkStack
	if b.Network {
		net = NewNetworkStack(trace.NewCodeLayoutAt(kernelCodeBase))
	}

	target := len(m.Samples()) + windows
	var arrivalClock float64 // absolute arrival time, cycles
	var serverFree float64   // when the worker becomes free, cycles
	res := RunResult{OfferedQPS: b.QPS}
	startCycles := m.TotalCycles()

	for len(m.Samples()) < target && res.Requests < maxRequests {
		arrivalClock += meanGapCyc * arrivalRNG.ExpFloat64()
		if arrivalClock > serverFree {
			// The worker idles until the next request arrives.
			m.Idle(arrivalClock - serverFree)
			serverFree = arrivalClock
		}
		busyBefore := m.BusyCycles()
		if net != nil {
			req, _ := messageSizes(srv)
			net.Receive(m, req)
		}
		srv.Handle(m, reqRNG)
		if net != nil {
			_, resp := messageSizes(srv)
			net.Send(m, resp)
		}
		serverFree += m.BusyCycles() - busyBefore
		res.Requests++
	}
	res.WindowsClosed = len(m.Samples())
	elapsed := m.TotalCycles() - startCycles
	if elapsed > 0 {
		res.AchievedQPS = float64(res.Requests) / (elapsed / cycPerSec)
	}
	return res
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
