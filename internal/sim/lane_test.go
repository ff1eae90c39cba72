package sim

import (
	"reflect"
	"testing"

	"datamime/internal/stats"
	"datamime/internal/trace"
)

// assertMachinesIdentical is stricter than assertOutputsMatch: got must be
// want in every bit a later event could read — each cache's lines,
// replacement state and dueling state, TLB entries and clocks, the
// predictor, and the coalescing trackers.
func assertMachinesIdentical(t *testing.T, got, want *Machine) {
	t.Helper()
	assertOutputsMatch(t, got, want)
	caches := []struct {
		name string
		a, b *Cache
	}{{"L1I", got.l1i, want.l1i}, {"L1D", got.l1d, want.l1d}, {"L2", got.l2, want.l2}, {"L3", got.l3, want.l3}}
	for _, c := range caches {
		if c.a != nil {
			assertCachesIdentical(t, c.name, c.a, c.b)
		}
	}
	if !reflect.DeepEqual(got.itlb.entries, want.itlb.entries) || got.itlb.clock != want.itlb.clock {
		t.Errorf("ITLB entries or clock diverge")
	}
	if !reflect.DeepEqual(got.dtlb.entries, want.dtlb.entries) || got.dtlb.clock != want.dtlb.clock {
		t.Errorf("DTLB entries or clock diverge")
	}
	if !reflect.DeepEqual(got.bp, want.bp) {
		t.Errorf("branch predictor diverges")
	}
	if got.wall != want.wall || got.totalIdle != want.totalIdle || got.burstMiss != want.burstMiss {
		t.Errorf("wall counters, idle cycles or burst position diverge")
	}
	type trackers struct {
		dl, il, dp, ip     uint64
		dv, iv, dpOK, ipOK bool
	}
	tr := func(m *Machine) trackers {
		return trackers{m.lastDataLine, m.lastInstrLine, m.lastDataPage, m.lastInstrPage,
			m.lastDataValid, m.lastInstrValid, m.lastDataPageOK, m.lastInstrPageOK}
	}
	if tr(got) != tr(want) {
		t.Errorf("coalescing trackers diverge: %+v vs %+v", tr(got), tr(want))
	}
}

// assertLaneMatches pins a lane against the main lane of a machine
// partitioned to its allocation that saw the same events: samples, cycle
// totals, the open windows as the lane sees them, and its LLC, bit for bit.
func assertLaneMatches(t *testing.T, ln *Lane, want *Machine) {
	t.Helper()
	w := &want.Lane
	if ln.Ways() != w.Ways() {
		t.Fatalf("lane has %d ways, its machine %d", ln.Ways(), w.Ways())
	}
	if len(ln.samples)+len(w.samples) > 0 && !reflect.DeepEqual(ln.samples, w.samples) {
		t.Errorf("%d-way lane: window samples diverge (%d windows, want %d)", ln.Ways(), len(ln.samples), len(w.samples))
	}
	if len(ln.wallSamples)+len(w.wallSamples) > 0 && !reflect.DeepEqual(ln.wallSamples, w.wallSamples) {
		t.Errorf("%d-way lane: wall samples diverge", ln.Ways())
	}
	if ln.totalBusy != w.totalBusy || ln.totalIdle != w.totalIdle {
		t.Errorf("%d-way lane: cycle totals diverge: %g/%g, want %g/%g", ln.Ways(), ln.totalBusy, ln.totalIdle, w.totalBusy, w.totalIdle)
	}
	// A stopped lane's open window is never read again, and the machine's
	// counts run on past it.
	stopped := ln.stopped
	open := func(ln *Lane) (windowCounters, wallCounters) {
		c, win := ln.counts(), ln.win
		win.eventCounts = eventCounts{}
		if !stopped {
			win.eventCounts = eventCounts{c.instrs - ln.base.instrs, c.l1dMiss - ln.base.l1dMiss, c.l2Miss - ln.base.l2Miss,
				c.icMiss - ln.base.icMiss, c.itlbMiss - ln.base.itlbMiss, c.dtlbMiss - ln.base.dtlbMiss, c.branchMis - ln.base.branchMis}
		}
		return win, ln.wall
	}
	gw, gwall := open(ln)
	ww, wwall := open(w)
	if gw != ww || gwall != wwall {
		t.Errorf("%d-way lane: open windows diverge:\n  lane %+v %+v\n  want %+v %+v", ln.Ways(), gw, gwall, ww, wwall)
	}
	assertCachesIdentical(t, "LLC", ln.llc, w.llc)
}

// allWays returns every allocation of a machine's LLC, 1 to its ways.
func allWays(cfg MachineConfig) []int {
	ways := make([]int, cfg.LLCWays())
	for i := range ways {
		ways[i] = i + 1
	}
	return ways
}

// laned drives a machine with lanes: every lane idles what the main lane
// idles, as a workload pass with one shared arrival stream and lanes that
// are all free when a request arrives would make them.
type laned struct{ *Machine }

func (l laned) Idle(cyc float64) {
	l.Lane.Idle(cyc)
	for _, ln := range l.extra {
		ln.Idle(cyc)
	}
}

// warmer is a dataset warm made of a function.
type warmer func(trace.Collector)

func (w warmer) WarmDataset(col trace.Collector) { w(col) }

// TestTapedWarmMatchesClassic: a machine carrying a lane for every
// allocation, warmed by Machine.Warm, is — after the warm and again after a
// measured phase on top of it — a classic machine at the main lane's
// allocation in every bit, and each other lane is the main lane of a
// classic machine at its own, warmed classically and flushed. Covers the three Table II machines
// (Silvermont's lanes are its last-level L2), LRU and DRRIP at the LLC and
// at the L1, with data, instruction, branch and idle events, and a main lane
// partitioned below the full cache. The name dates from the warm tape the
// lanes replaced; the contract, one shared warm equal to a classic warm per
// allocation, is the same.
func TestTapedWarmMatchesClassic(t *testing.T) {
	const windowCycles, warmEvents, measureEvents = 40_000, 40_000, 8_000
	for name, cfg := range equivalenceConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			warmSeed := stats.HashSeed(5, name)
			classic := func(ways int) *Machine {
				m := NewMachine(cfg, windowCycles)
				m.SetLLCPartition(ways)
				return m
			}
			for _, main := range []int{cfg.LLCWays(), 2} {
				m := classic(main)
				lanes := []*Lane{}
				for _, w := range allWays(cfg) {
					lanes = append(lanes, m.AddLane(w))
				}
				if n := len(m.extra); n != cfg.LLCWays()-1 {
					t.Fatalf("main at %d ways: %d extra lanes, want %d", main, n, cfg.LLCWays()-1)
				}
				if lanes[main-1] != &m.Lane {
					t.Fatalf("the %d-way allocation is not the main lane", main)
				}
				wants := make([]*Machine, len(lanes))
				for i := range wants {
					wants[i] = classic(i + 1)
				}
				check := func(phase string) {
					assertMachinesIdentical(t, m, wants[main-1])
					for i, ln := range lanes {
						assertLaneMatches(t, ln, wants[i])
					}
					if t.Failed() {
						t.Fatalf("main at %d ways: diverged after the %s", main, phase)
					}
				}
				m.Warm(warmer(func(trace.Collector) { driveMixed(laned{m}, warmSeed, warmEvents) }))
				for _, mm := range wants {
					driveMixed(mm, warmSeed, warmEvents)
					mm.FlushSamples()
				}
				check("warm")
				for _, mm := range append([]*Machine{m}, wants...) {
					driveMixed(laned{mm}, warmSeed+1, measureEvents)
				}
				check("measured phase")
			}
		})
	}
}

// TestLanesMatchSingleLaneMachines is the randomized lane differential: over
// random hierarchies and both LLC policies, a machine carrying a random set
// of lanes is driven through random event streams in phases, with each
// lane idling on its own and being flushed and stopped at random, against
// one single-lane machine per allocation driven the same way. Every lane
// must equal its machine after every phase, a stopped lane the machine as
// it stood when the lane stopped, and the main lane's machine in full.
func TestLanesMatchSingleLaneMachines(t *testing.T) {
	rng := stats.NewRNG(41)
	cases := 40
	if testing.Short() {
		cases = 10
	}
	const windowCycles = 3000
	for c := 0; c < cases; c++ {
		cfg := randomMachineConfig(rng, c)
		if c%2 == 1 { // both policies on every geometry draw
			llc := cfg.L2
			if cfg.L3 != nil {
				llc = *cfg.L3
			}
			llc.Policy = 1 - llc.Policy
			if cfg.L3 != nil {
				cfg.L3 = &llc
			} else {
				cfg.L2 = llc
			}
		}
		llcBytes := cfg.LLC().SizeBytes
		m := NewMachine(cfg, windowCycles)
		m.SetLLCPartition(1 + rng.IntN(cfg.LLCWays()))
		var lanes []*Lane
		var singles []*Machine
		for i, n := 0, 1+rng.IntN(4); i < n; i++ {
			ln := m.AddLane(1 + rng.IntN(cfg.LLCWays()))
			if containsLane(lanes, ln) {
				continue
			}
			s := NewMachine(cfg, windowCycles)
			s.SetLLCPartition(ln.Ways())
			lanes, singles = append(lanes, ln), append(singles, s)
		}
		if !containsLane(lanes, &m.Lane) {
			s := NewMachine(cfg, windowCycles)
			s.SetLLCPartition(m.Ways())
			lanes, singles = append(lanes, &m.Lane), append(singles, s)
		}
		regions := kernelTestRegions()
		singleRegions := make([][]*trace.CodeRegion, len(singles))
		for i := range singles {
			singleRegions[i] = kernelTestRegions()
		}
		for phase := 0; phase < 5; phase++ {
			evs := genMachineEvents(rng, 1200, llcBytes)
			// Idle events go to each live lane in turn with a lane-specific
			// gap, as a pass's lanes idle on their own server clocks.
			for _, e := range evs {
				if e.kind != 5 {
					replayKernelEvents(m, regions, []kernelEvent{e})
					for i, s := range singles {
						if !lanes[i].stopped {
							replayKernelEvents(s, singleRegions[i], []kernelEvent{e})
						}
					}
					continue
				}
				for i, ln := range lanes {
					if !ln.stopped {
						gap := float64(e.val) * float64(1+i)
						ln.Idle(gap)
						singles[i].Idle(gap)
					}
				}
			}
			for i, ln := range lanes {
				assertLaneMatches(t, ln, singles[i])
				if !ln.stopped && &m.Lane == ln {
					assertMachinesIdentical(t, m, singles[i])
				}
			}
			if t.Failed() {
				t.Fatalf("%s (%+v) diverged in phase %d", cfg.Name, cfg, phase)
			}
			for i, ln := range lanes {
				switch rng.IntN(6) {
				case 0:
					ln.FlushSamples()
					singles[i].FlushSamples()
				case 1:
					ln.Stop()
				}
			}
		}
	}
}

func containsLane(lanes []*Lane, ln *Lane) bool {
	for _, l := range lanes {
		if l == ln {
			return true
		}
	}
	return false
}

// TestResetDropsLanes: Reset takes a machine with lanes, stopped or not,
// back to a plain machine, and lanes added afterwards start cold.
func TestResetDropsLanes(t *testing.T) {
	m := NewMachine(Broadwell(), 40_000)
	m.AddLane(3)
	m.AddLane(5).Stop()
	driveMixed(laned{m}, 3, 500)
	m.Stop()
	m.Reset()
	if len(m.extra) != 0 || len(m.live) != 1 || m.live[0] != &m.Lane {
		t.Fatal("Reset left lanes behind")
	}
	fresh := NewMachine(Broadwell(), 40_000)
	ln, want := m.AddLane(3), NewMachine(Broadwell(), 40_000)
	want.SetLLCPartition(3)
	driveMixed(laned{m}, 9, 5_000)
	driveMixed(fresh, 9, 5_000)
	driveMixed(want, 9, 5_000)
	assertMachinesIdentical(t, m, fresh)
	assertLaneMatches(t, ln, want)
}

// TestAddLaneAfterEventsPanics: a lane joins cold, so one added to a
// machine that has run would not see the events before it.
func TestAddLaneAfterEventsPanics(t *testing.T) {
	m := NewMachine(Broadwell(), 40_000)
	m.Ops(10)
	defer func() {
		if recover() == nil {
			t.Fatal("AddLane after events did not panic")
		}
	}()
	m.AddLane(3)
}

// TestLanesAreCompact bounds a lane's memory: the Quick Broadwell sweep's
// five partitioned lanes cost 8 bytes per line of their allocations plus a
// state word per set, the full-way point is the main lane, and lanes added
// after Reset reuse the storage of the lanes Reset dropped.
func TestLanesAreCompact(t *testing.T) {
	cfg := Broadwell()
	sets := cfg.LLC().Sets()
	allocs := []int{1, 3, 5, 7, 9, 12}
	m := NewMachine(cfg, 40_000)
	add := func() []*Lane {
		var lanes []*Lane
		for _, w := range allocs {
			lanes = append(lanes, m.AddLane(w))
		}
		return lanes
	}
	lanes := add()
	if lanes[5] != &m.Lane || len(m.extra) != 5 {
		t.Fatalf("the 12-way point is not the main lane, or %d extra lanes", len(m.extra))
	}
	for i, ln := range lanes[:5] {
		if got, want := cap(ln.llc.tags), allocs[i]*sets; got != want {
			t.Fatalf("%d-way lane holds %d lines, want %d", allocs[i], got, want)
		}
		if got := cap(ln.llc.state); got != sets {
			t.Fatalf("%d-way lane holds %d state words, want %d", allocs[i], got, sets)
		}
	}
	for i := uint64(0); i < 20_000; i++ {
		m.Load(0x10000000+i*640, 640)
	}
	tags := map[*uint64]bool{}
	for _, ln := range lanes[:5] {
		tags[&ln.llc.tags[0]] = true
	}
	m.Reset()
	readd := func() {
		m.Reset()
		for _, w := range allocs {
			m.AddLane(w)
		}
	}
	if allocs := testing.AllocsPerRun(1, readd); allocs != 0 {
		t.Fatalf("re-adding the lanes after Reset allocated %v times", allocs)
	}
	for _, ln := range m.extra {
		if !tags[&ln.llc.tags[:1][0]] {
			t.Fatal("a lane added after Reset did not reuse a dropped lane's storage")
		}
	}
}
