// Range sweep: how wide is a dataset generator's reach?
//
// A generator is only useful if it can span the behaviors production
// workloads exhibit (§V-E, Fig. 11). This example asks Datamime to hit a
// series of *arbitrary* IPC values with the memcached generator — not to
// match any particular workload — and reports asked-vs-achieved. Points on
// the diagonal are achievable; flat segments mark the generator's limits.
//
// Run with:
//
//	go run ./examples/range-sweep
package main

import (
	"fmt"
	"log"
)

import "datamime"

func main() {
	gen := datamime.MemcachedGenerator()
	profiler := datamime.NewProfiler(datamime.Broadwell())
	profiler.Spec = datamime.QuickSettings().Spec
	profiler.SkipCurves = true // single-metric targeting needs no curves

	fmt.Println("memcached generator: achievable IPC range (asked -> achieved)")
	fmt.Printf("%8s %10s %10s\n", "asked", "achieved", "rel. err")
	const points = 7
	lo, hi := 0.5, 3.5
	for i := 0; i < points; i++ {
		asked := lo + float64(i)*(hi-lo)/float64(points-1)
		res, err := datamime.Search(datamime.SearchConfig{
			Generator:  gen,
			Objective:  datamime.MetricObjective{Metric: datamime.MetricIPC, Value: asked},
			Profiler:   profiler,
			Iterations: 14,
			Parallel:   4,
			Seed:       uint64(100 + i),
		})
		if err != nil {
			log.Fatal(err)
		}
		achieved := res.BestProfile.Mean(datamime.MetricIPC)
		fmt.Printf("%8.2f %10.2f %9.1f%%\n", asked, achieved, 100*abs(asked-achieved)/asked)
	}
	fmt.Println()
	fmt.Println("Values the generator cannot reach saturate at its range limits —")
	fmt.Println("memcached's uniform request processing bounds its IPC span, exactly")
	fmt.Println("the behavior the paper reports in Fig. 11.")
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
