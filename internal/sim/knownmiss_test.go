package sim

import (
	"fmt"
	"slices"
	"testing"

	"datamime/internal/stats"
	"datamime/internal/trace"
)

// The known-miss walk's differential. A line at or above the machine's mark
// skips every tag compare (kernel.go), and the generated streams of
// differential_test.go almost never step one: their first stores lift the
// mark past every later load. So these tests drive ascending streams —
// each load or store above every line touched before it, interleaved with
// revisits, instruction fetches, branches and idles — through the random
// hierarchies, the Table II matrix and lane-carrying warms, against the
// reference walk and classic single-lane machines.

// ascendingBase is the first line of an ascending stream: above the code
// layout and every address genMachineEvents draws.
const ascendingBase = uint64(1) << 30

// ascending generates a stream of n events whose loads and stores mostly
// climb from next, a line address: each climbing access starts on a line
// above every line the stream touched, spans one to four lines at a random
// offset — the first event is one — and is followed by a gap of up to two lines or by a jump to the
// first 64 lines of the next block of stride lines — stride is the LLC's
// set count, so the jumps crowd a few sets of every level until they are
// full. The rest revisit lines below the climb's top, recent or not, fetch
// instructions, branch, compute and idle. It returns the events, how many
// lines the climbing accesses cover, and the line the next stream starts
// at.
func ascending(rng *stats.RNG, n int, next, stride uint64) (evs []kernelEvent, lines int, after uint64) {
	return climbStream(rng, n, next, stride, 64, true)
}

// climbStream is ascending with jumps to the first spread lines of a block,
// and, unless probing, without the revisits and instruction fetches: a
// stream that never probes a cache, as a dataset warm's scan is.
func climbStream(rng *stats.RNG, n int, next, stride uint64, spread int, probing bool) (evs []kernelEvent, lines int, after uint64) {
	first, top := next, next // top is one past the highest line climbed
	for len(evs) < n {
		kind := rng.IntN(10)
		if len(evs) == 0 {
			kind = 0 // the climb starts the stream, above every fetch
		}
		if !probing && (kind == 5 || kind == 6) {
			continue
		}
		switch kind {
		case 0, 1, 2, 3, 4:
			span := 1 + rng.IntN(4)
			off := rng.IntN(trace.LineSize)
			size := (span-1)*trace.LineSize + 1 + rng.IntN(trace.LineSize-off)
			evs = append(evs, kernelEvent{kind: rng.IntN(2), addr: next<<lineShift + uint64(off), size: size})
			lines += span
			next += uint64(span)
			top = next
			if rng.Bool(0.5) {
				next += uint64(rng.IntN(3))
			} else {
				next += stride - next%stride + uint64(rng.IntN(spread))
			}
		case 5:
			from := first
			if rng.Bool(0.5) && top-first > 64 {
				from = top - 64
			}
			if from == top {
				continue
			}
			a := (from+uint64(rng.IntN(int(top-from))))<<lineShift + uint64(rng.IntN(trace.LineSize))
			size := 1 + rng.IntN(min(200, int(top<<lineShift-a)))
			evs = append(evs, kernelEvent{kind: rng.IntN(2), addr: a, size: size})
		case 6:
			evs = append(evs, kernelEvent{kind: 2, reg: rng.IntN(4), val: 8 + rng.IntN(640)})
		case 7:
			evs = append(evs, kernelEvent{kind: 3, addr: uint64(rng.IntN(64)) * 8, val: rng.IntN(2)})
		case 8:
			evs = append(evs, kernelEvent{kind: 4, val: 1 + rng.IntN(50)})
		case 9:
			evs = append(evs, kernelEvent{kind: 5, val: rng.IntN(3000)})
		}
	}
	return evs, lines, next
}

// knownMissConfigs is the matrix of the known-miss tests: the Table II
// machines and their policy variants (a DRRIP L1, Silvermont's L2 as its
// LLC under both policies), and random hierarchies.
func knownMissConfigs(rng *stats.RNG, random int) []MachineConfig {
	var cfgs []MachineConfig
	for _, name := range []string{"broadwell", "zen2", "silvermont", "broadwell-lru-llc", "zen2-drrip-llc", "silvermont-drrip-l2", "broadwell-drrip-l1d"} {
		cfgs = append(cfgs, equivalenceConfigs()[name])
	}
	for c := 0; c < random; c++ {
		cfgs = append(cfgs, randomMachineConfig(rng, c))
	}
	return cfgs
}

// replayAscending replays evs on m and checks that the climbing lines, and
// only they, took the known-miss walk.
func replayAscending(t *testing.T, m laned, regions []*trace.CodeRegion, evs []kernelEvent, lines int) {
	t.Helper()
	known := m.knownMisses
	replayKernelEvents(m, regions, evs)
	if got := m.knownMisses - known; got != uint64(lines) {
		t.Fatalf("%d lines took the known-miss walk, want the %d climbing lines", got, lines)
	}
}

// TestKnownMissWalkMatchesReference alternates phases of genMachineEvents'
// traffic below the climb with ascending phases above it, on a kernel
// machine and a reference machine, with window flushes, resets and LLC
// repartitions between phases, comparing every window, statistic and set
// after each phase.
func TestKnownMissWalkMatchesReference(t *testing.T) {
	rng := stats.NewRNG(53)
	random := 30
	if testing.Short() {
		random = 8
	}
	const windowCycles = 3000
	for _, cfg := range knownMissConfigs(rng, random) {
		llcBytes := cfg.LLC().SizeBytes
		kern, ref := NewMachine(cfg, windowCycles), newRefMachine(cfg, windowCycles)
		regions := [2][]*trace.CodeRegion{kernelTestRegions(), kernelTestRegions()}
		next := ascendingBase
		for phase := 0; phase < 6; phase++ {
			if phase%2 == 0 {
				var evs []kernelEvent
				var lines int
				evs, lines, next = ascending(rng, 1500, next, uint64(cfg.LLC().Sets()))
				replayAscending(t, laned{kern}, regions[0], evs, lines)
				replayKernelEvents(ref, regions[1], evs)
			} else {
				evs := genMachineEvents(rng, 1000, llcBytes)
				replayKernelEvents(kern, regions[0], evs)
				replayKernelEvents(ref, regions[1], evs)
			}
			assertMachinesMatch(t, kern, ref)
			if t.Failed() {
				t.Fatalf("%s (%+v) diverged in phase %d", cfg.Name, cfg, phase)
			}
			w := 1 + rng.IntN(cfg.LLCWays())
			switch rng.IntN(3) {
			case 0:
				kern.FlushSamples()
				ref.FlushSamples()
			case 1:
				kern.Reset()
				ref.Reset()
				kern.SetLLCPartition(w)
				ref.SetLLCPartition(w)
			case 2:
				if w > kern.Lane.llc.partWays || cfg.LLC().Policy == DRRIP {
					kern.SetLLCPartition(w)
					ref.SetLLCPartition(w)
				}
			}
		}
	}
}

// TestKnownMissWarmMatchesClassic is TestTapedWarmMatchesClassic on
// ascending streams: a machine carrying a lane for every allocation, its
// main lane at the full cache or at 2 ways, is warmed by Machine.Warm with
// an ascending stream and then driven through an ascending measured phase.
// After each, it must be a classic machine at the main lane's allocation in
// every bit, and each lane the main lane of a classic machine at its own,
// which in turn must match the reference walk.
//
// A second input has a dataset warm's shape: a climb that probes nothing,
// long enough to fill and replay the tape more than once, then re-touches
// of earlier lines, as kvstore re-touches its hot keys after WarmScan, then
// another climb. The tape and the L1D's and L2's ring sets must end at the
// first probe, on every Table II machine and its policy variants, with
// Quick's lanes: the re-touches start with L1D hits, or with an
// instruction fetch that probes the L2 and the lanes before the L1D.
func TestKnownMissWarmMatchesClassic(t *testing.T) {
	rng := stats.NewRNG(59)
	random := 12
	if testing.Short() {
		random = 4
	}
	for _, cfg := range knownMissConfigs(rng, random) {
		stride := uint64(cfg.LLC().Sets())
		warm, warmLines, next := ascending(rng, 3000, ascendingBase, stride)
		measure, measureLines, _ := ascending(rng, 1500, next, stride)
		for _, main := range []int{cfg.LLCWays(), min(2, cfg.LLCWays())} {
			name := fmt.Sprintf("%s (%+v) with the main lane at %d ways", cfg.Name, cfg, main)
			checkKnownMissWarm(t, name, cfg, main, allWays(cfg), warm, warmLines, measure, measureLines, -1)
		}
	}
	rng = stats.NewRNG(61)
	for _, cfg := range knownMissConfigs(rng, 0) {
		for _, fetchFirst := range []bool{false, true} {
			stride := uint64(cfg.LLC().Sets())
			climb, climbLines, next := climbStream(rng, 2500, ascendingBase, stride, 16, false)
			assertRingsCovered(t, cfg, climb)
			again, againLines, next := climbStream(rng, 500, next, stride, 16, false)
			warm := slices.Concat(climb, retouch(rng, 600, climb, fetchFirst), again)
			measure, measureLines, _ := ascending(rng, 1500, next, stride)
			taped := -1
			if cfg.L3 != nil {
				taped = climbLines // every line up to the first lane probe
			}
			name := fmt.Sprintf("%s (%+v), climbed, re-touched (fetch first %t) and climbed again", cfg.Name, cfg, fetchFirst)
			checkKnownMissWarm(t, name, cfg, cfg.LLCWays(), quickWays(cfg), warm, climbLines+againLines, measure, measureLines, taped)
		}
	}
}

// checkKnownMissWarm warms a machine carrying a lane at each of allocs,
// its main lane at main ways, with warm, and drives it through measure.
// After each, it must be a classic machine at the main lane's allocation,
// each lane a classic machine at its own that was not warmed through Warm,
// and each classic machine the reference walk. If taped is not negative,
// the warm's tape must have taken that many lines.
func checkKnownMissWarm(t *testing.T, name string, cfg MachineConfig, main int, allocs []int, warm []kernelEvent, warmLines int, measure []kernelEvent, measureLines, taped int) {
	t.Helper()
	const windowCycles = 3000
	m := NewMachine(cfg, windowCycles)
	m.SetLLCPartition(main)
	var lanes []*Lane
	for _, w := range allocs {
		lanes = append(lanes, m.AddLane(w))
	}
	classics := make([]*Machine, len(lanes))
	refs := make([]*refMachine, len(lanes))
	mainClassic := -1
	for i, ln := range lanes {
		classics[i], refs[i] = NewMachine(cfg, windowCycles), newRefMachine(cfg, windowCycles)
		classics[i].SetLLCPartition(allocs[i])
		refs[i].SetLLCPartition(allocs[i])
		if ln == &m.Lane {
			mainClassic = i
		}
	}
	if mainClassic < 0 {
		t.Fatalf("%s: no allocation of %v is the main lane's %d ways", name, allocs, main)
	}
	regions := kernelTestRegions()
	others := make([][2][]*trace.CodeRegion, len(lanes))
	for i := range others {
		others[i] = [2][]*trace.CodeRegion{kernelTestRegions(), kernelTestRegions()}
	}
	check := func(phase string) {
		assertMachinesIdentical(t, m, classics[mainClassic])
		for i, ln := range lanes {
			assertMachinesMatch(t, classics[i], refs[i])
			assertLaneMatches(t, ln, classics[i])
		}
		if t.Failed() {
			t.Fatalf("%s: diverged after the %s", name, phase)
		}
	}
	m.Warm(warmer(func(trace.Collector) { replayAscending(t, laned{m}, regions, warm, warmLines) }))
	if taped >= 0 && m.taped != uint64(taped) {
		t.Fatalf("%s: the tape took %d lines, want %d", name, m.taped, taped)
	}
	for i := range classics {
		replayAscending(t, laned{classics[i]}, others[i][0], warm, warmLines)
		replayKernelEvents(refs[i], others[i][1], warm)
		classics[i].FlushSamples()
		refs[i].FlushSamples()
	}
	check("warm")
	replayAscending(t, laned{m}, regions, measure, measureLines)
	for i := range classics {
		replayAscending(t, laned{classics[i]}, others[i][0], measure, measureLines)
		replayKernelEvents(refs[i], others[i][1], measure)
	}
	check("measured phase")
}

// quickWays returns the LLC allocations of harness.Quick()'s six-point
// curve on cfg (profile.curveWays): 1 way, the full cache and four between.
func quickWays(cfg MachineConfig) []int {
	total := cfg.LLCWays()
	var ways []int
	for i := 0; i < 6; i++ {
		if w := 1 + i*(total-1)/5; len(ways) == 0 || ways[len(ways)-1] != w {
			ways = append(ways, w)
		}
	}
	return ways
}

// dataLines returns the lines the loads and stores of evs touch, in order.
func dataLines(evs []kernelEvent) (lines []uint64) {
	for _, e := range evs {
		if e.kind > 1 {
			continue
		}
		for la := e.addr >> lineShift; la <= (e.addr+uint64(e.size)-1)>>lineShift; la++ {
			lines = append(lines, la)
		}
	}
	return lines
}

// retouch generates n events that re-touch the lines of climb, each a load
// or store of a line within 64 of its top or anywhere below it, with
// instruction fetches, branches and computation between: the shape of a
// store's hot-key re-touch after its scan. Its first events load the
// climb's twelve most recent lines but the last, newest first: L1D hits,
// each the most recent line of its set, before any lane's probe. If
// fetchFirst, a fetch of all 40 lines of kernelTestRegions' mid region
// comes before them: L1I misses, which probe the L2 while its sets are
// rings, and then the lanes. The region's lines fall in L2 sets 4 to 43,
// which the climb's jumps to the low lines of an LLC stride have filled.
func retouch(rng *stats.RNG, n int, climb []kernelEvent, fetchFirst bool) []kernelEvent {
	lines := dataLines(climb)
	first, top := lines[0], lines[len(lines)-1]+1
	var evs []kernelEvent
	if fetchFirst {
		evs = append(evs, kernelEvent{kind: 2, reg: 2, val: 40 * trace.InstrBytesPerLine})
	}
	for i := len(lines) - 2; i >= len(lines)-13; i-- {
		evs = append(evs, kernelEvent{kind: 0, addr: lines[i] << lineShift, size: 8})
	}
	for len(evs) < n {
		switch rng.IntN(4) {
		case 0, 1:
			from := first
			if rng.Bool(0.5) {
				from = top - 64
			}
			a := (from + uint64(rng.IntN(int(top-from)))) << lineShift
			size := 1 + rng.IntN(min(2*trace.LineSize, int(top<<lineShift-a)))
			evs = append(evs, kernelEvent{kind: rng.IntN(2), addr: a, size: size})
		case 2:
			evs = append(evs, kernelEvent{kind: 2, reg: rng.IntN(4), val: 8 + rng.IntN(640)})
		case 3:
			evs = append(evs, kernelEvent{kind: 3, addr: uint64(rng.IntN(64)) * 8, val: rng.IntN(2)})
		}
	}
	return evs
}

// assertRingsCovered checks that a climb that probes nothing leaves, at the
// L1D and the L2 of cfg, some sets partly filled and some that wrapped
// round, so the ring sets' lay-out at the first probe is tested on both.
func assertRingsCovered(t *testing.T, cfg MachineConfig, climb []kernelEvent) {
	t.Helper()
	lines := dataLines(climb)
	for _, cc := range []CacheConfig{cfg.L1D, cfg.L2} {
		sets := uint64(cc.Sets())
		per := make([]int, sets)
		for _, la := range lines {
			per[la%sets]++
		}
		partial, wrapped := false, false
		for _, n := range per {
			partial = partial || n > 0 && n < cc.Ways
			wrapped = wrapped || n > cc.Ways
		}
		if !partial || !wrapped {
			t.Fatalf("%s %s: the climb leaves no partly filled set (%t) or no set that wrapped (%t)", cfg.Name, cc.Name, partial, wrapped)
		}
	}
}
