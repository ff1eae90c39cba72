// Quickstart: the smallest end-to-end Datamime run.
//
// We profile a "production" workload (memcached with a Facebook-like
// dataset whose configuration the search never sees), then search the
// memcached dataset generator's Table III parameter space until the
// generated benchmark's performance profiles match the target's, and
// finally compare the two side by side.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"datamime"
)

func main() {
	// 1. Profile the target workload on the generation machine (Broadwell).
	//    In production this is the only step the service operator performs.
	profiler := datamime.NewProfiler(datamime.Broadwell())
	// Reduced budgets so the quickstart finishes in ~a minute; drop this
	// line for paper-fidelity profiling.
	profiler.Spec = datamime.QuickSettings().Spec

	target := datamime.MemFB()
	targetProfile, err := profiler.Profile(target, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("target %q: IPC %.2f, LLC MPKI %.2f, ICache MPKI %.2f, CPU util %.2f\n\n",
		target.Name,
		targetProfile.Mean(datamime.MetricIPC),
		targetProfile.Mean(datamime.MetricLLC),
		targetProfile.Mean(datamime.MetricICache),
		targetProfile.Mean(datamime.MetricCPUUtil))

	// 2. Search the dataset generator's parameter space. The optimizer
	//    only ever sees profiles, never the target's dataset.
	gen := datamime.MemcachedGenerator()
	fmt.Printf("searching %d parameters: %v\n", gen.Space.Dim(), gen.Space.Names())
	result, err := datamime.Search(datamime.SearchConfig{
		Generator:  gen,
		Objective:  datamime.NewProfileObjective(targetProfile, datamime.NewErrorModel()),
		Profiler:   profiler,
		Iterations: 40, // the paper uses 200; 40 keeps the quickstart short
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. The result is a representative benchmark: the public program plus
	//    the synthesized dataset parameters.
	fmt.Printf("\nbest dataset (total EMD %.3f):\n  %s\n\n",
		result.BestError, gen.Space.Values(result.BestParams))
	fmt.Println("metric          target   datamime")
	for _, m := range []datamime.MetricID{
		datamime.MetricIPC, datamime.MetricLLC, datamime.MetricICache,
		datamime.MetricBranch, datamime.MetricCPUUtil, datamime.MetricMemBW,
	} {
		fmt.Printf("%-14s %8.3f   %8.3f\n", m,
			targetProfile.Mean(m), result.BestProfile.Mean(m))
	}
}
