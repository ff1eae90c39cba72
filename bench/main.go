// Command bench is the repo's performance ledger: four fixed-design search
// workloads run through the public search API, reported end to end (tracing
// off) or layer by layer (a traced pass that wraps, from outside, every
// value the search calls through). See README.md for the metric glossary.
//
//	bench -workload search-kv -seed 1 -seconds 10 -trace 0
//	bench compare A.json B.json
//	bench merge -o out.json part.json...
//
// The last line of a workload run's standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:])
		case "merge":
			return runMerge(args[1:])
		}
	}
	return runWorkload(args)
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare A.json B.json")
	}
	a, err := readResult(args[0])
	if err != nil {
		return err
	}
	b, err := readResult(args[1])
	if err != nil {
		return err
	}
	ok, err := compare(os.Stdout, a, b)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("B regressed against A, or an exact metric moved")
	}
	return nil
}

func runMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	out := fs.String("o", "", "merged result file to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" || fs.NArg() == 0 {
		return fmt.Errorf("usage: bench merge -o out.json part.json...")
	}
	rf, err := merge(fs.Args())
	if err != nil {
		return err
	}
	return writeJSON(*out, rf)
}

// driverLine is the result line the benchmark contract reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runWorkload(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: search-kv, search-kv-par2, search-dnn or search-cached")
	seed := fs.Uint64("seed", 1, "generates the target the search has to match (hold seed 7 out for claims)")
	seconds := fs.Float64("seconds", 10, "untraced pass: start another search while less than this long has been measured")
	repeats := fs.Int("repeats", 0, "untraced pass: repeat the search exactly this often instead (0 = use -seconds)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	outDir := fs.String("outdir", filepath.Join("bench", "out"), "directory for the result and trace files")
	commit := fs.String("commit", "unknown", "commit recorded in the result file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	// At most two OS threads of work: the reference host has two cores, and
	// a fixed count keeps the pooled workload the same shape everywhere. The
	// host shape records that cap; a workload may run below it.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	host := currentHost()
	if w.procs > 0 {
		runtime.GOMAXPROCS(min(host.GOMAXPROCS, w.procs))
	}
	fmt.Printf("%s seed %d: %s, nproc %d, GOMAXPROCS %d of %d, %s, commit %s\n",
		w.name, *seed, host.CPUModel, host.NProc, runtime.GOMAXPROCS(0), host.GOMAXPROCS, host.GoVersion, *commit)

	var res *workloadResult
	var c *checks
	var spans []span
	mode, done := "e2e", 1
	if *traced == 0 {
		res, c, done, err = runEndToEnd(w, *seed, *seconds, *repeats, os.Stdout)
	} else {
		mode = "layers"
		res, c, spans, err = runTraced(w, *seed, 5*time.Second, os.Stdout)
	}
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = c.attempted, c.failed
	res.Procs = runtime.GOMAXPROCS(0)
	res.Degenerate = w.parallel > 1 && host.GOMAXPROCS < 2
	if res.Degenerate {
		fmt.Println("  degenerate: GOMAXPROCS < 2, the pooled path runs serially on this host")
	}

	defs, values := endToEnd, res.EndToEnd
	if *traced != 0 {
		defs, values = perLayer, res.PerLayer
	}
	line := driverLine{Correct: len(c.violations) == 0, Attempted: c.attempted, Failed: c.failed,
		Metrics: map[string]driverValue{}}
	for _, d := range defs {
		m := values[d.Name]
		line.Metrics[d.Name] = driverValue{m.Value, m.Unit}
		if m.Samples > 1 {
			fmt.Printf("  %-28s %14.4f %-9s min %.4f max %.4f n=%d\n", d.Name, m.Value, m.Unit, m.Min, m.Max, m.Samples)
		} else {
			fmt.Printf("  %-28s %14.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
	fmt.Printf("  evaluations attempted %d, failed %d; fingerprint %s\n", c.attempted, c.failed, res.Fingerprint)
	for _, v := range c.violations {
		fmt.Println("  CHECK FAILED:", v)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	rf := resultFile{Host: host, Commit: *commit, Seed: *seed, Repeats: done,
		Workloads: map[string]*workloadResult{w.name: res}}
	if err := writeJSON(filepath.Join(*outDir, w.name+"."+mode+".json"), rf); err != nil {
		return err
	}
	if spans != nil {
		if err := writeJSON(filepath.Join(*outDir, "trace-"+w.name+".json"), spans); err != nil {
			return err
		}
	}

	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if !line.Correct {
		return fmt.Errorf("%s: %d output checks failed", w.name, len(c.violations))
	}
	return nil
}
