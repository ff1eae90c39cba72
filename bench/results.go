package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// hostShape is everything about the machine and build that makes two
// result files comparable. compare refuses files whose shapes differ.
type hostShape struct {
	CPUModel string `json:"cpu_model"`
	NProc    int    `json:"nproc"`
	// GOMAXPROCS is the benchmark's cap, min(nproc, 2).
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// measured is one metric as reported: the value (a median where there are
// several samples), the range it was taken from, and the sample count.
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int     `json:"samples"`
}

func single(v float64, unit string) measured {
	return measured{Value: v, Unit: unit, Min: v, Max: v, Samples: 1}
}

// workloadResult is one workload's section of a result file. A process
// fills EndToEnd (tracing off) or PerLayer (traced pass and probes); merge
// joins the two.
type workloadResult struct {
	// Degenerate marks search-kv-par2 on a host that cannot run two
	// threads: its numbers measure the serial path and compare skips them.
	Degenerate bool `json:"degenerate,omitempty"`
	// Procs is the GOMAXPROCS the workload ran under: the host's cap, or
	// the workload's own where that is lower.
	Procs       int                 `json:"procs"`
	Fingerprint string              `json:"fingerprint"`
	Attempted   int                 `json:"attempted"`
	Failed      int                 `json:"failed"`
	EndToEnd    map[string]measured `json:"end_to_end,omitempty"`
	PerLayer    map[string]measured `json:"per_layer,omitempty"`
}

// resultFile is what every run writes and what merge and compare read.
type resultFile struct {
	Host      hostShape                  `json:"host"`
	Commit    string                     `json:"commit"`
	Seed      uint64                     `json:"seed"`
	Repeats   int                        `json:"repeats"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func currentHost() hostShape {
	return hostShape{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// merge joins result files of one commit, seed and host into one: the
// end-to-end and per-layer sections of each workload come from different
// processes.
func merge(paths []string) (*resultFile, error) {
	var out *resultFile
	for _, path := range paths {
		rf, err := readResult(path)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = rf
			continue
		}
		if rf.Host != out.Host || rf.Commit != out.Commit || rf.Seed != out.Seed {
			return nil, fmt.Errorf("%s: host, commit or seed differs from %s", path, paths[0])
		}
		if rf.Repeats > out.Repeats {
			out.Repeats = rf.Repeats
		}
		for name, wr := range rf.Workloads {
			have, ok := out.Workloads[name]
			if !ok {
				out.Workloads[name] = wr
				continue
			}
			if have.Fingerprint != wr.Fingerprint {
				return nil, fmt.Errorf("%s: %s fingerprint %s differs from %s", path, name, wr.Fingerprint, have.Fingerprint)
			}
			if wr.EndToEnd != nil {
				have.EndToEnd = wr.EndToEnd
			}
			if wr.PerLayer != nil {
				have.PerLayer = wr.PerLayer
			}
			have.Attempted += wr.Attempted
			have.Failed += wr.Failed
		}
	}
	return out, nil
}

// compare prints, per workload, each end-to-end metric's change from a to b
// against its bound, and each exact metric's equality. It returns an error
// when the files cannot be compared and false when b regressed or an exact
// metric moved.
func compare(w io.Writer, a, b *resultFile) (ok bool, err error) {
	if a.Host != b.Host {
		return false, fmt.Errorf("host shapes differ, refusing to compare:\n  A: %+v\n  B: %+v", a.Host, b.Host)
	}
	fmt.Fprintf(w, "A: commit %s seed %d repeats %d\nB: commit %s seed %d repeats %d\nhost: %s, nproc %d, GOMAXPROCS %d, %s\n",
		a.Commit, a.Seed, a.Repeats, b.Commit, b.Seed, b.Repeats,
		a.Host.CPUModel, a.Host.NProc, a.Host.GOMAXPROCS, a.Host.GoVersion)
	ok = true
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		if _, both := b.Workloads[name]; both {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		fmt.Fprintf(w, "\n%s\n", name)
		if wa.Degenerate || wb.Degenerate {
			fmt.Fprintf(w, "  degenerate: GOMAXPROCS < 2, the pooled path did not run in parallel\n")
			continue
		}
		for _, d := range endToEnd {
			ma, inA := wa.EndToEnd[d.Name]
			mb, inB := wb.EndToEnd[d.Name]
			if !inA || !inB {
				continue
			}
			verdict := judge(d, ma, mb)
			if verdict == "REGRESSED" {
				ok = false
			}
			fmt.Fprintf(w, "  %-22s %12.4f -> %12.4f %-3s %+7.2f%%  bound %4.1f%%  %s\n",
				d.Name, ma.Value, mb.Value, d.Unit, 100*worsening(ma.Value, mb.Value), 100*d.Bound, verdict)
		}
		for _, d := range perLayer {
			ma, inA := wa.PerLayer[d.Name]
			mb, inB := wb.PerLayer[d.Name]
			if !d.Exact || !inA || !inB {
				continue
			}
			verdict := "identical"
			if ma.Value != mb.Value {
				verdict, ok = "DIFFERS", false
			}
			fmt.Fprintf(w, "  %-22s %s -> %s %s  %s\n", d.Name, exact(ma.Value), exact(mb.Value), d.Unit, verdict)
		}
	}
	return ok, nil
}

// exact prints every digit of a value, counts without an exponent.
func exact(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// worsening is the relative change from a to b, positive when b is worse:
// every end-to-end metric is better when lower.
func worsening(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}

// judge compares medians against the bound, but calls the pair unresolved
// when either side's own min–max spread is wider than the bound — unless
// every sample of one side is below every sample of the other.
func judge(d metricDef, a, b measured) string {
	spread := func(m measured) float64 {
		if m.Value == 0 {
			return 0
		}
		return (m.Max - m.Min) / m.Value
	}
	separated := b.Max < a.Min || a.Max < b.Min
	if (spread(a) > d.Bound || spread(b) > d.Bound) && !separated {
		return "unresolved"
	}
	switch rel := worsening(a.Value, b.Value); {
	case rel > d.Bound:
		return "REGRESSED"
	case rel < -d.Bound:
		return "improved"
	}
	return "within bound"
}
