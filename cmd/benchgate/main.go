// Command benchgate turns `go test -bench` output into a committed JSON
// baseline and gates regressions against it — the perf counterpart of the
// inspect-gate determinism check.
//
// Usage:
//
//	go test -run NONE -bench . -benchtime=1x -count=3 ./internal/... > bench.txt
//	benchgate snapshot -in bench.txt -out BENCH_BASELINE.json
//	benchgate compare -in bench.txt -baseline BENCH_BASELINE.json \
//	    -gate BenchmarkProfilerSweep -max-regression 0.30
//	benchgate text -baseline BENCH_BASELINE.json > baseline.txt
//
// snapshot aggregates repeated runs of each benchmark (min ns/op — the
// least-noise estimator for a regression gate) into a baseline file.
// compare reports every benchmark's delta against the baseline and fails
// (exit 1) when a benchmark matching -gate regresses by more than
// -max-regression.
// text re-emits the baseline in `go test -bench` format so external tools
// (e.g. benchstat) can diff it against a fresh run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed benchmark snapshot.
type Baseline struct {
	// Note documents how to refresh the file.
	Note string `json:"note"`
	// Benchmarks maps full benchmark names (including /sub and -P suffix)
	// to their aggregated measurements.
	Benchmarks map[string]Measurement `json:"benchmarks"`
}

// Measurement is one benchmark's aggregated result.
type Measurement struct {
	NsPerOp float64 `json:"ns_per_op"`
	// Runs counts how many samples the aggregate came from.
	Runs int `json:"runs"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "snapshot":
		err = snapshot(os.Args[2:])
	case "compare":
		err = compare(os.Args[2:])
	case "text":
		err = text(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchgate snapshot|compare|text [flags]")
	os.Exit(2)
}

// benchLine matches one `go test -bench` result line:
//
//	BenchmarkProfilerSweep/workers=1-4   1   123456789 ns/op   640 B/op   7 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op`)

// gomaxprocsSuffix is the "-N" go test appends to benchmark names when
// GOMAXPROCS > 1. It encodes the measuring machine's core count, so a
// baseline taken on one machine would never match a run on another; strip
// it so names are comparable. (No benchmark in this repo ends in a literal
// "-N".)
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads benchmark output, aggregating repeated samples of each
// name by minimum ns/op.
func parseBench(r io.Reader) (map[string]Measurement, error) {
	out := make(map[string]Measurement)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		name := gomaxprocsSuffix.ReplaceAllString(m[1], "")
		cur, ok := out[name]
		if !ok || ns < cur.NsPerOp {
			cur.NsPerOp = ns
		}
		cur.Runs++
		out[name] = cur
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark results found in input")
	}
	return out, nil
}

func readBenchFile(path string) (map[string]Measurement, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseBench(f)
}

func readBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func sortedNames(m map[string]Measurement) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func snapshot(args []string) error {
	fs := flag.NewFlagSet("snapshot", flag.ExitOnError)
	in := fs.String("in", "", "benchmark output file (go test -bench format)")
	out := fs.String("out", "BENCH_BASELINE.json", "baseline file to write")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("snapshot: -in is required")
	}
	bench, err := readBenchFile(*in)
	if err != nil {
		return err
	}
	b := Baseline{
		Note:       "regenerate: go test -run NONE -bench . -benchtime=1x -count=3 ./internal/... > bench.txt && benchgate snapshot -in bench.txt",
		Benchmarks: bench,
	}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(bench))
	return nil
}

func compare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	in := fs.String("in", "", "benchmark output file (go test -bench format)")
	basePath := fs.String("baseline", "BENCH_BASELINE.json", "committed baseline")
	gate := fs.String("gate", "BenchmarkProfilerSweep", "substring of benchmark names the regression gate applies to (others report advisory)")
	maxReg := fs.Float64("max-regression", 0.30, "fail when a gated benchmark's ns/op exceeds baseline by more than this fraction")
	report := fs.String("report", "", "also write the comparison table to this file")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("compare: -in is required")
	}
	cur, err := readBenchFile(*in)
	if err != nil {
		return err
	}
	base, err := readBaseline(*basePath)
	if err != nil {
		return err
	}

	var buf strings.Builder
	fmt.Fprintf(&buf, "%-60s %15s %15s %9s\n", "benchmark", "baseline ns/op", "current ns/op", "delta")
	var failures []string
	for _, name := range sortedNames(base.Benchmarks) {
		b := base.Benchmarks[name]
		c, ok := cur[name]
		if !ok {
			fmt.Fprintf(&buf, "%-60s %15.0f %15s %9s\n", name, b.NsPerOp, "missing", "-")
			if strings.Contains(name, *gate) {
				failures = append(failures, fmt.Sprintf("%s: present in baseline but not in current run", name))
			}
			continue
		}
		delta := c.NsPerOp/b.NsPerOp - 1
		mark := ""
		if strings.Contains(name, *gate) {
			mark = " [gated]"
			if delta > *maxReg {
				failures = append(failures, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.0f%%, limit %+.0f%%)",
					name, b.NsPerOp, c.NsPerOp, delta*100, *maxReg*100))
			}
		}
		fmt.Fprintf(&buf, "%-60s %15.0f %15.0f %+8.0f%%%s\n", name, b.NsPerOp, c.NsPerOp, delta*100, mark)
	}
	for _, name := range sortedNames(cur) {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Fprintf(&buf, "%-60s %15s %15.0f %9s\n", name, "new", cur[name].NsPerOp, "-")
		}
	}

	fmt.Print(buf.String())
	if *report != "" {
		if err := os.WriteFile(*report, []byte(buf.String()), 0o644); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("regression gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Printf("gate ok: no %q regression above %.0f%%\n", *gate, *maxReg*100)
	return nil
}

func text(args []string) error {
	fs := flag.NewFlagSet("text", flag.ExitOnError)
	basePath := fs.String("baseline", "", "baseline JSON file to render")
	in := fs.String("in", "", "raw benchmark output to re-render with normalized names (alternative to -baseline)")
	fs.Parse(args)
	var bench map[string]Measurement
	switch {
	case *basePath != "" && *in != "":
		return fmt.Errorf("text: -baseline and -in are mutually exclusive")
	case *basePath != "":
		base, err := readBaseline(*basePath)
		if err != nil {
			return err
		}
		bench = base.Benchmarks
	case *in != "":
		var err error
		bench, err = readBenchFile(*in)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("text: one of -baseline or -in is required")
	}
	for _, name := range sortedNames(bench) {
		fmt.Printf("%s \t%d\t%.0f ns/op\n", name, 1, bench[name].NsPerOp)
	}
	return nil
}
