// Command profiler collects the performance profile of one evaluation
// workload on one simulated machine and writes it as JSON — the artifact
// the paper's operators would hand to a benchmark designer.
//
// Usage:
//
//	profiler -workload mem-fb -machine broadwell > mem-fb.json
//	profiler -workload dnn -machine silvermont -scheme public
package main

import (
	"flag"
	"fmt"
	"os"

	"datamime"
	"datamime/internal/backend"
	"datamime/internal/buildinfo"
	"datamime/internal/harness"
	"datamime/internal/sim"
)

func main() {
	var (
		workloadName = flag.String("workload", "mem-fb", "workload to profile")
		machineName  = flag.String("machine", "broadwell", "machine: broadwell, zen2, silvermont")
		scheme       = flag.String("scheme", "target", "scheme: target or public")
		seed         = flag.Uint64("seed", 1, "profiling seed")
		quick        = flag.Bool("quick", false, "use reduced profiling budgets")
		version      = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("profiler", buildinfo.Read())
		return
	}
	if err := run(*workloadName, *machineName, *scheme, *seed, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "profiler:", err)
		os.Exit(1)
	}
}

func run(workloadName, machineName, scheme string, seed uint64, quick bool) error {
	w, err := harness.WorkloadByName(workloadName)
	if err != nil {
		return err
	}
	machine, err := sim.MachineByName(machineName)
	if err != nil {
		return err
	}
	bench := w.Target
	switch scheme {
	case "target":
	case "public":
		if w.Public == nil {
			return fmt.Errorf("workload %s has no public dataset", w.Name)
		}
		bench = *w.Public
	default:
		return fmt.Errorf("unknown scheme %q (target, public)", scheme)
	}

	pr := backend.NewLocalBackend().Profiler(machine)
	if quick {
		pr.Spec = datamime.QuickSettings().Spec
	}
	p, err := pr.Profile(bench, seed)
	if err != nil {
		return err
	}
	data, err := p.EncodeJSON()
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(data, '\n'))
	return err
}
