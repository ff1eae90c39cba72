package sim

import (
	"reflect"
	"testing"

	"datamime/internal/stats"
)

// assertMachinesIdentical is stricter than assertMachinesMatch: a taped warm
// elides nothing the classic kernel walk performs, so replacement stamps,
// clocks, predictor tables and coalescing trackers must be equal too — every
// bit a later event could read.
func assertMachinesIdentical(t *testing.T, got, want *Machine) {
	t.Helper()
	assertMachinesMatch(t, got, want)
	caches := []struct {
		name string
		a, b *Cache
	}{{"L1I", got.l1i, want.l1i}, {"L1D", got.l1d, want.l1d}, {"L2", got.l2, want.l2}, {"L3", got.l3, want.l3}}
	for _, c := range caches {
		if c.a == nil {
			continue
		}
		if c.a.lruClock != c.b.lruClock || c.a.partWays != c.b.partWays {
			t.Errorf("%s clock/partition diverge: %d/%d vs %d/%d", c.name, c.a.lruClock, c.a.partWays, c.b.lruClock, c.b.partWays)
		}
		for i := range c.a.lines {
			if c.a.lines[i].gen == c.a.gen && c.a.lines[i].meta != c.b.lines[i].meta {
				t.Fatalf("%s line %d replacement stamp diverges: %d vs %d", c.name, i, c.a.lines[i].meta, c.b.lines[i].meta)
			}
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
	if got.tape != nil {
		t.Errorf("machine still in tape mode")
	}
}

// TestTapedWarmMatchesClassic: a recording warm leaves the machine a classic
// warm leaves, and so does a replay at every way allocation — right after
// the warm and after a measured phase driven on top of it. Covers the three
// Table II machines (Silvermont tapes TLBs + L1 and replays into its
// partitioned L2), LRU and DRRIP at the LLC and at the L1, with data,
// instruction and branch events.
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
				return m
			}
			// measure drives the profiler's next phase on both machines.
			measure := func(got, want *Machine) {
				for _, m := range []*Machine{got, want} {
					m.FlushSamples()
					driveMixed(m, warmSeed+1, measureEvents)
				}
			}

			tape := NewWarmTape()
			rec := NewMachine(cfg, windowCycles)
			if mode := rec.BeginWarm(tape); mode != WarmRecord {
				t.Fatalf("first warm of a blank tape ran in mode %d", mode)
			}
			driveMixed(rec, warmSeed, warmEvents)
			if err := rec.EndWarm(); err != nil {
				t.Fatal(err)
			}
			if tape.state.Load() != tapeSealed {
				t.Fatal("recording warm did not seal the tape")
			}
			want := classic(0)
			assertMachinesIdentical(t, rec, want)
			measure(rec, want)
			assertMachinesIdentical(t, rec, want)

			// One machine replays every allocation, as a sweep worker does:
			// Reset bumps cache generations, so this also covers installing
			// recorded lines under a generation they were not recorded in.
			m := NewMachine(cfg, windowCycles)
			for ways := 1; ways <= cfg.LLCWays(); ways++ {
				m.Reset()
				m.SetLLCPartition(ways)
				if mode := m.BeginWarm(tape); mode != WarmReplay {
					t.Fatalf("warm of a sealed tape ran in mode %d", mode)
				}
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

// TestReplayDivergenceIsAnError: a replay whose line stream is not the
// recorded one — other addresses, fewer steps, more steps — must end in an
// error, never in a machine that looks warmed.
func TestReplayDivergenceIsAnError(t *testing.T) {
	cfg := Broadwell()
	tape := NewWarmTape()
	rec := NewMachine(cfg, 40_000)
	rec.BeginWarm(tape)
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
		m.BeginWarm(tape)
		driveMixed(m, tc.seed, tc.events)
		if err := m.EndWarm(); err == nil {
			t.Errorf("%s: diverging replay was accepted", tc.name)
		}
		if acc, _ := m.l1d.Stats(); tc.name != "other order" && acc > 5_000 {
			// Only the coalescing counters move during a replay; the
			// recorded state must not have been installed.
			t.Errorf("%s: recorded state installed after divergence (%d L1D accesses)", tc.name, acc)
		}
	}
	// The same stream replays cleanly.
	m := NewMachine(cfg, 40_000)
	m.BeginWarm(tape)
	driveMixed(m, 3, 5_000)
	if err := m.EndWarm(); err != nil {
		t.Fatal(err)
	}
}

// TestResetLeavesTapeMode: a machine abandoned mid-warm (a canceled run)
// must come back from Reset as a plain machine.
func TestResetLeavesTapeMode(t *testing.T) {
	m := NewMachine(Broadwell(), 40_000)
	m.BeginWarm(NewWarmTape())
	driveMixed(m, 3, 500)
	m.Reset()
	if m.tape != nil {
		t.Fatal("Reset left the machine in tape mode")
	}
	if err := m.EndWarm(); err == nil {
		t.Fatal("EndWarm without BeginWarm must be an error")
	}
	fresh := NewMachine(Broadwell(), 40_000)
	driveMixed(m, 9, 5_000)
	driveMixed(fresh, 9, 5_000)
	assertMachinesIdentical(t, m, fresh)
}

// TestScalarWalkRefusesTape: the reference walk keeps warming classically.
func TestScalarWalkRefusesTape(t *testing.T) {
	m := NewMachine(Broadwell(), 40_000)
	m.setScalarPath(true)
	tape := NewWarmTape()
	if m.BeginWarm(tape) != WarmClassic {
		t.Fatal("scalar-path machine accepted a tape")
	}
	driveMixed(m, 3, 500)
	if tape.state.Load() != tapeBlank || m.tape != nil {
		t.Fatal("refused tape was touched")
	}
	// The tape is still blank: a kernel-path machine can record it.
	if NewMachine(Broadwell(), 40_000).BeginWarm(tape) != WarmRecord {
		t.Fatal("tape refused by a scalar machine is no longer blank")
	}
}

// TestWarmWhileRecordingIsClassic: a machine that asks for a tape another
// machine is still recording is not made to wait; it warms classically, and
// replays once the recording is sealed.
func TestWarmWhileRecordingIsClassic(t *testing.T) {
	tape := NewWarmTape()
	rec := NewMachine(Broadwell(), 40_000)
	other := NewMachine(Broadwell(), 40_000)
	if rec.BeginWarm(tape) != WarmRecord {
		t.Fatal("first machine did not record")
	}
	if other.BeginWarm(tape) != WarmClassic || other.tape != nil {
		t.Fatal("second machine did not fall back to a classic warm")
	}
	driveMixed(rec, 3, 2_000)
	if err := rec.EndWarm(); err != nil {
		t.Fatal(err)
	}
	if other.BeginWarm(tape) != WarmReplay {
		t.Fatal("sealed tape was not replayed")
	}
}

// TestTapeIsCompact bounds the tape: a streaming scan — what a dataset warm
// mostly is — must cost far less than a byte per line step.
func TestTapeIsCompact(t *testing.T) {
	m := NewMachine(Broadwell(), 40_000)
	tape := NewWarmTape()
	m.BeginWarm(tape)
	const accesses, lines = 100_000, 100_000 * 10
	for i := uint64(0); i < accesses; i++ {
		m.Load(0x10000000+i*640, 640)
	}
	if err := m.EndWarm(); err != nil {
		t.Fatal(err)
	}
	if tape.steps != lines {
		t.Fatalf("taped %d steps, want %d", tape.steps, lines)
	}
	if got := len(tape.chunks) * tapeChunk; got > lines/8 {
		t.Fatalf("tape of %d streaming steps holds %d token bytes", lines, got)
	}
}
