// Custom generator: bringing a NEW application to Datamime.
//
// This example follows the systematic parameterization procedure of §III-B
// for an application the library does not ship: a log-scanning service
// (think grep-as-a-service). The steps are:
//
//  1. Implement the application as a datamime.Server: a real program whose
//     operations emit their memory accesses, instruction blocks, and
//     data-dependent branches into a datamime.Collector.
//  2. Choose request parameters (QPS, pattern selectivity) and data
//     parameters (log-record size distribution, resident log size).
//  3. Wrap dataset construction in a datamime.Generator and search it.
//
// Here the "production target" is a hidden configuration of the same
// service, and we ask Datamime to recover a matching dataset from its
// profile alone.
//
// Run with:
//
//	go run ./examples/custom-generator
package main

import (
	"fmt"
	"log"

	"datamime"
)

// logScanner is a toy-but-real log-scanning service: it holds a resident
// buffer of length-varied records and each request scans a window of
// records for a pattern, emitting the scan's loads and the match branches.
type logScanner struct {
	records   []record
	scanCode  *datamime.CodeRegion
	matchCode *datamime.CodeRegion
	replyBuf  uint64
	window    int
	matchRate float64
	cursor    int
}

type record struct {
	addr uint64
	size int
	sig  uint64 // content fingerprint driving the match branches
}

// logScannerConfig is the dataset configuration.
type logScannerConfig struct {
	numRecords int
	recordSize datamime.Distribution
	window     int     // records scanned per request
	matchRate  float64 // fraction of records matching the pattern
}

// newLogScanner builds the resident log deterministically from seed.
func newLogScanner(cfg logScannerConfig, layout *datamime.CodeLayout, seed uint64) *logScanner {
	rng := datamime.NewRNG(seed)
	s := &logScanner{
		scanCode:  layout.Region("logscan.scan", 6<<10),
		matchCode: layout.Region("logscan.match", 3<<10),
		replyBuf:  0x0000000030000000,
		window:    cfg.window,
		matchRate: cfg.matchRate,
	}
	// Records get synthetic addresses laid out back to back from a fixed
	// base — the resident log file.
	next := uint64(0x0000000031000000)
	for i := 0; i < cfg.numRecords; i++ {
		size := int(cfg.recordSize.Sample(rng))
		if size < 16 {
			size = 16
		}
		s.records = append(s.records, record{addr: next, size: size, sig: rng.Uint64()})
		next += uint64((size + 63) &^ 63)
	}
	return s
}

// Name implements datamime.Server.
func (s *logScanner) Name() string { return "log-scanner" }

// Handle implements datamime.Server: scan the next window of records.
func (s *logScanner) Handle(col datamime.Collector, rng *datamime.RNG) {
	col.Exec(s.scanCode, 600)
	matches := 0
	for i := 0; i < s.window; i++ {
		r := s.records[s.cursor]
		s.cursor = (s.cursor + 1) % len(s.records)
		col.Load(r.addr, r.size)       // stream the record
		col.Ops(r.size / 8)            // pattern automaton work
		match := rng.Bool(s.matchRate) // content-dependent outcome
		col.Branch(s.matchCode.Base, match)
		if match {
			matches++
			col.Exec(s.matchCode, 200)
			col.Store(s.replyBuf, 64) // append a hit to the reply
		}
	}
	col.Exec(s.scanCode, 150+20*matches)
}

// generator wraps the dataset construction per §III-B: request parameters
// (qps, window, match rate) plus data parameters (record size, log size).
func generator() datamime.Generator {
	space, err := datamime.NewSpace(
		datamime.Param{Name: "qps", Lo: 500, Hi: 50_000, Log: true},
		datamime.Param{Name: "record_bytes", Lo: 64, Hi: 8_192, Log: true, Integer: true},
		datamime.Param{Name: "num_records", Lo: 2_000, Hi: 200_000, Log: true, Integer: true},
		datamime.Param{Name: "window", Lo: 4, Hi: 256, Log: true, Integer: true},
		datamime.Param{Name: "match_rate", Lo: 0, Hi: 1},
	)
	if err != nil {
		log.Fatal(err)
	}
	return datamime.Generator{
		Name:  "log-scanner",
		Space: space,
		Benchmark: func(x []float64) datamime.Benchmark {
			cfg := logScannerConfig{
				numRecords: int(x[2]),
				recordSize: datamime.Normal{Mu: x[1], Sigma: x[1] / 6, Min: 16},
				window:     int(x[3]),
				matchRate:  x[4],
			}
			return datamime.Benchmark{
				Name: "log-scanner",
				QPS:  x[0],
				NewServer: func(layout *datamime.CodeLayout, seed uint64) datamime.Server {
					return newLogScanner(cfg, layout, seed)
				},
			}
		},
	}
}

func main() {
	gen := generator()

	// The hidden "production" target: a configuration the search only sees
	// through its profile (heavy-tailed record sizes the Gaussian generator
	// cannot express directly — as with mem-fb in the paper).
	hidden := datamime.Benchmark{
		Name: "log-scanner-production",
		QPS:  9_000,
		NewServer: func(layout *datamime.CodeLayout, seed uint64) datamime.Server {
			return newLogScanner(logScannerConfig{
				numRecords: 60_000,
				recordSize: datamime.GPareto{Loc: 96, Scale: 500, Shape: 0.2},
				window:     48,
				matchRate:  0.12,
			}, layout, seed)
		},
	}

	profiler := datamime.NewProfiler(datamime.Broadwell())
	profiler.Spec = datamime.QuickSettings().Spec

	target, err := profiler.Profile(hidden, 99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hidden target: IPC %.2f, LLC MPKI %.2f, mem BW %.2f GB/s, util %.2f\n",
		target.Mean(datamime.MetricIPC), target.Mean(datamime.MetricLLC),
		target.Mean(datamime.MetricMemBW), target.Mean(datamime.MetricCPUUtil))

	res, err := datamime.Search(datamime.SearchConfig{
		Generator:  gen,
		Objective:  datamime.NewProfileObjective(target, datamime.NewErrorModel()),
		Profiler:   profiler,
		Iterations: 40,
		Seed:       5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecovered dataset (total EMD %.3f):\n  %s\n\n",
		res.BestError, gen.Space.Values(res.BestParams))
	fmt.Println("metric          target   datamime")
	for _, m := range []datamime.MetricID{
		datamime.MetricIPC, datamime.MetricLLC, datamime.MetricL1D,
		datamime.MetricBranch, datamime.MetricCPUUtil, datamime.MetricMemBW,
	} {
		fmt.Printf("%-14s %8.3f   %8.3f\n", m, target.Mean(m), res.BestProfile.Mean(m))
	}
}
