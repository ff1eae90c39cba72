package sim

import (
	"reflect"
	"testing"

	"datamime/internal/stats"
)

// assertMachinesIdentical is stricter than assertOutputsMatch: a restored
// machine must be the classically warmed machine in every bit a later event
// could read — each cache's lines, replacement state and dueling state,
// TLB entries and clocks, the predictor, and the coalescing trackers.
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
	if got.warm != nil {
		t.Errorf("machine still in tape mode")
	}
}

// allWays returns every allocation of a machine's LLC, 1 to its ways.
func allWays(cfg MachineConfig) []int {
	ways := make([]int, cfg.LLCWays())
	for i := range ways {
		ways[i] = i + 1
	}
	return ways
}

// TestTapedWarmMatchesClassic: a recording warm carrying a lane for every
// allocation leaves the machine a classic warm leaves, and so does a
// restore at every allocation — once both have flushed the warm's windows,
// and again after a measured phase driven on top of it. Covers the three
// Table II machines (Silvermont's lanes are its last-level L2), LRU and
// DRRIP at the LLC and at the L1, with data, instruction, branch and idle
// events.
func TestTapedWarmMatchesClassic(t *testing.T) {
	const windowCycles, warmEvents, measureEvents = 40_000, 40_000, 8_000
	for name, cfg := range equivalenceConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			warmSeed := stats.HashSeed(5, name)
			classic := func(ways int) *Machine {
				m := NewMachine(cfg, windowCycles)
				if ways > 0 {
					m.SetLLCPartition(ways)
				}
				driveMixed(m, warmSeed, warmEvents)
				m.FlushSamples()
				return m
			}
			// measure drives the profiler's next phase on both machines.
			measure := func(got, want *Machine) {
				for _, m := range []*Machine{got, want} {
					driveMixed(m, warmSeed+1, measureEvents)
				}
			}

			tape := NewWarmTape(allWays(cfg)...)
			rec := NewMachine(cfg, windowCycles)
			rec.RecordWarm(tape)
			if n := len(tape.lanes); n != cfg.LLCWays()-1 || !tape.ownUsed {
				t.Fatalf("recording carries %d lanes (own copy %v), want %d and the own copy", n, tape.ownUsed, cfg.LLCWays()-1)
			}
			driveMixed(rec, warmSeed, warmEvents)
			if err := rec.EndWarm(); err != nil {
				t.Fatal(err)
			}
			if !tape.sealed.Load() {
				t.Fatal("recording warm did not seal the tape")
			}
			want := classic(0)
			assertMachinesIdentical(t, rec, want)
			measure(rec, want)
			assertMachinesIdentical(t, rec, want)

			// One machine restores every allocation, as a sweep worker does:
			// each restore installs into caches the previous run filled.
			m := NewMachine(cfg, windowCycles)
			for ways := 1; ways <= cfg.LLCWays(); ways++ {
				m.Reset()
				m.SetLLCPartition(ways)
				m.RestoreWarm(tape)
				driveMixed(m, warmSeed, warmEvents)
				if err := m.EndWarm(); err != nil {
					t.Fatalf("ways=%d: %v", ways, err)
				}
				want := classic(ways)
				assertMachinesIdentical(t, m, want)
				measure(m, want)
				assertMachinesIdentical(t, m, want)
				if t.Failed() {
					t.Fatalf("diverged at ways=%d", ways)
				}
			}
		})
	}
}

// TestReplayDivergenceIsAnError: a restore whose line stream is not the
// recorded one — other addresses, fewer steps, more steps — must end in an
// error, never in a machine that looks warmed; so must a restore at an
// allocation the tape does not carry.
func TestReplayDivergenceIsAnError(t *testing.T) {
	cfg := Broadwell()
	tape := NewWarmTape(0, 4)
	rec := NewMachine(cfg, 40_000)
	rec.RecordWarm(tape)
	driveMixed(rec, 3, 5_000)
	if err := rec.EndWarm(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		seed   uint64
		events int
	}{{"other order", 4, 5_000}, {"fewer events", 3, 4_000}, {"more events", 3, 6_000}} {
		m := NewMachine(cfg, 40_000)
		m.RestoreWarm(tape)
		driveMixed(m, tc.seed, tc.events)
		if err := m.EndWarm(); err == nil {
			t.Errorf("%s: diverging restore was accepted", tc.name)
		}
		if acc, _ := m.l1d.Stats(); acc > 5_000 {
			// Only the coalescing counters move during a restore; the
			// recorded state must not have been installed.
			t.Errorf("%s: recorded state installed after divergence (%d L1D accesses)", tc.name, acc)
		}
	}
	// The same stream restores cleanly at both allocations, and at no other.
	for _, ways := range []int{12, 4, 5} {
		m := NewMachine(cfg, 40_000)
		m.SetLLCPartition(ways)
		m.RestoreWarm(tape)
		driveMixed(m, 3, 5_000)
		if err := m.EndWarm(); (err != nil) != (ways == 5) {
			t.Errorf("ways=%d: EndWarm = %v", ways, err)
		}
	}
}

// TestRestoreBeforeSealIsAnError: the sweep orders every restore after the
// seal; a machine that restores from a tape still being recorded installs
// nothing and says so.
func TestRestoreBeforeSealIsAnError(t *testing.T) {
	tape := NewWarmTape(0)
	rec := NewMachine(Broadwell(), 40_000)
	early := NewMachine(Broadwell(), 40_000)
	rec.RecordWarm(tape)
	early.RestoreWarm(tape)
	driveMixed(rec, 3, 2_000)
	driveMixed(early, 3, 2_000)
	if err := rec.EndWarm(); err != nil {
		t.Fatal(err)
	}
	if err := early.EndWarm(); err == nil {
		t.Fatal("a restore begun before the seal was accepted")
	}
	// Begun after the seal, the same restore succeeds.
	late := NewMachine(Broadwell(), 40_000)
	late.RestoreWarm(tape)
	driveMixed(late, 3, 2_000)
	if err := late.EndWarm(); err != nil {
		t.Fatal(err)
	}
	assertMachinesIdentical(t, late, rec)
}

// TestResetLeavesTapeMode: a machine abandoned mid-warm (a canceled run)
// must come back from Reset as a plain machine.
func TestResetLeavesTapeMode(t *testing.T) {
	m := NewMachine(Broadwell(), 40_000)
	m.RecordWarm(NewWarmTape(3))
	driveMixed(m, 3, 500)
	m.Reset()
	if m.warm != nil {
		t.Fatal("Reset left the machine in tape mode")
	}
	if err := m.EndWarm(); err == nil {
		t.Fatal("EndWarm without RecordWarm must be an error")
	}
	fresh := NewMachine(Broadwell(), 40_000)
	driveMixed(m, 9, 5_000)
	driveMixed(fresh, 9, 5_000)
	assertMachinesIdentical(t, m, fresh)
}

// TestTapeIsCompact bounds a recording's memory: the Quick Broadwell
// sweep's five partitioned lanes cost 8 bytes per line of their allocations
// plus a state word per set, the full-way run restores from one copy of the
// recorder's LLC, and a tape reused for the next sweep allocates nothing.
func TestTapeIsCompact(t *testing.T) {
	cfg := Broadwell()
	sets := cfg.LLC().Sets()
	allocs := []int{1, 3, 5, 7, 9, 12}
	tape := NewWarmTape(allocs...)
	record := func() {
		m := NewMachine(cfg, 40_000)
		m.RecordWarm(tape)
		for i := uint64(0); i < 20_000; i++ {
			m.Load(0x10000000+i*640, 640)
		}
		if err := m.EndWarm(); err != nil {
			t.Fatal(err)
		}
	}
	record()
	const laneWays = 1 + 3 + 5 + 7 + 9
	if got, want := cap(tape.laneTags), laneWays*sets; got != want {
		t.Fatalf("lane tags hold %d lines, want %d", got, want)
	}
	if got, want := cap(tape.laneState), 5*sets; got != want {
		t.Fatalf("lane state holds %d words, want %d", got, want)
	}
	if got, want := cap(tape.own.c.tags), 12*sets; got != want {
		t.Fatalf("the recorder's LLC copy holds %d lines, want %d", got, want)
	}
	// 25 ways and 12 of 16 384 sets at 8 B a line, 6 × 16 384 state words:
	// 5.375 MB, where six 12-way images of the old 16-byte lines were 18.
	bytes := 8 * (cap(tape.laneTags) + cap(tape.laneState) + cap(tape.own.c.tags) + cap(tape.own.c.state))
	if bytes > 11<<19 {
		t.Fatalf("a Quick sweep's tape holds %.1f MB", float64(bytes)/(1<<20))
	}
	lanes, own := &tape.laneTags[0], &tape.own.c.tags[0]
	tape.Reset(allocs...)
	record()
	if &tape.laneTags[0] != lanes || &tape.own.c.tags[0] != own {
		t.Fatal("a reused tape reallocated its storage")
	}
}
