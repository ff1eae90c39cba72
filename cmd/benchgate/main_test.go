package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: datamime/internal/profile
cpu: Intel(R) Xeon(R)
BenchmarkProfilerSweep/workers=1-4         	       1	 90000000 ns/op
BenchmarkProfilerSweep/workers=1-4         	       1	 80000000 ns/op
BenchmarkProfilerSweep/workers=4-4         	       1	 25000000 ns/op
BenchmarkProfilerSweep/workers=4-4         	       1	 20000000 ns/op
BenchmarkSimRun-4                          	       2	  1500000 ns/op	  640 B/op	       7 allocs/op
PASS
ok  	datamime/internal/profile	1.234s
`

func TestParseBenchAggregatesMin(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	// The -4 GOMAXPROCS suffix is stripped so baselines transfer across
	// machines with different core counts.
	w1 := got["BenchmarkProfilerSweep/workers=1"]
	if w1.NsPerOp != 80000000 || w1.Runs != 2 {
		t.Errorf("workers=1: got %+v, want min 8e7 over 2 runs", w1)
	}
	sim := got["BenchmarkSimRun"]
	if sim.NsPerOp != 1500000 || sim.Runs != 1 {
		t.Errorf("SimRun: got %+v", sim)
	}
}

func TestParseBenchRejectsEmpty(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\nok\n")); err == nil {
		t.Fatal("expected error for input with no benchmark lines")
	}
}
