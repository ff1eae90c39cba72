package sim

import (
	"fmt"
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
	first, top := next, next // top is one past the highest line climbed
	for len(evs) < n {
		kind := rng.IntN(10)
		if len(evs) == 0 {
			kind = 0 // the climb starts the stream, above every fetch
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
				next += stride - next%stride + uint64(rng.IntN(64))
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
func TestKnownMissWarmMatchesClassic(t *testing.T) {
	rng := stats.NewRNG(59)
	random := 12
	if testing.Short() {
		random = 4
	}
	const windowCycles = 3000
	for _, cfg := range knownMissConfigs(rng, random) {
		stride := uint64(cfg.LLC().Sets())
		warm, warmLines, next := ascending(rng, 3000, ascendingBase, stride)
		measure, measureLines, _ := ascending(rng, 1500, next, stride)
		for _, main := range []int{cfg.LLCWays(), min(2, cfg.LLCWays())} {
			name := fmt.Sprintf("%s (%+v) with the main lane at %d ways", cfg.Name, cfg, main)
			m := NewMachine(cfg, windowCycles)
			m.SetLLCPartition(main)
			lanes := []*Lane{}
			for _, w := range allWays(cfg) {
				lanes = append(lanes, m.AddLane(w))
			}
			classics := make([]*Machine, len(lanes))
			refs := make([]*refMachine, len(lanes))
			for i := range classics {
				classics[i], refs[i] = NewMachine(cfg, windowCycles), newRefMachine(cfg, windowCycles)
				classics[i].SetLLCPartition(i + 1)
				refs[i].SetLLCPartition(i + 1)
			}
			regions := kernelTestRegions()
			others := make([][2][]*trace.CodeRegion, len(lanes))
			for i := range others {
				others[i] = [2][]*trace.CodeRegion{kernelTestRegions(), kernelTestRegions()}
			}
			check := func(phase string) {
				assertMachinesIdentical(t, m, classics[main-1])
				for i, ln := range lanes {
					assertMachinesMatch(t, classics[i], refs[i])
					assertLaneMatches(t, ln, classics[i])
				}
				if t.Failed() {
					t.Fatalf("%s: diverged after the %s", name, phase)
				}
			}
			m.Warm(warmer(func(trace.Collector) { replayAscending(t, laned{m}, regions, warm, warmLines) }))
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
	}
}
