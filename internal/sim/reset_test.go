package sim

import (
	"testing"

	"datamime/internal/stats"
	"datamime/internal/trace"
)

// driveMixed replays a deterministic mixed event stream (loads, stores,
// code fetch, branches, idle gaps) seeded by seed — the same shape of
// traffic a profiled server generates.
func driveMixed(m eventSink, seed uint64, events int) {
	rng := stats.NewRNG(seed)
	cl := trace.NewCodeLayout()
	code := cl.Region("f", 32<<10)
	for i := 0; i < events; i++ {
		switch rng.IntN(5) {
		case 0:
			m.Ops(1 + rng.IntN(40))
		case 1:
			m.Load(uint64(0x10000000+rng.IntN(48<<20)), 1+rng.IntN(256))
		case 2:
			m.Store(uint64(0x20000000+rng.IntN(2<<20)), 1+rng.IntN(64))
		case 3:
			m.Exec(code, 1+rng.IntN(200))
		case 4:
			m.Branch(uint64(rng.IntN(256)), rng.Bool(0.4))
		}
		if rng.Bool(0.01) {
			m.Idle(float64(rng.IntN(80_000)))
		}
	}
}

// TestResetMatchesFreshMachine pins down the property the parallel profiler
// depends on for worker-local machine reuse: a run on a Reset machine is
// byte-identical to the same run on a freshly-constructed machine, even
// after the prior run narrowed the LLC partition and left replacement
// clocks, dueling counters, and partial windows behind — and so is a run on
// a machine of another window length after ResetWindows.
func TestResetMatchesFreshMachine(t *testing.T) {
	for _, cfg := range Machines() {
		t.Run(cfg.Name, func(t *testing.T) {
			collect := func(m *Machine) ([]WindowSample, []WallSample, float64, float64) {
				m.SetLLCPartition(3)
				driveMixed(m, stats.HashSeed(11, cfg.Name), 120_000)
				s := append([]WindowSample(nil), m.Samples()...)
				w := append([]WallSample(nil), m.WallSamples()...)
				return s, w, m.TotalCycles(), m.BusyCycles()
			}

			fresh := NewMachine(cfg, 40_000)
			wantS, wantW, wantTot, wantBusy := collect(fresh)

			// Dirty a machine with a different-seed run at a different
			// partition, then Reset and repeat the reference run — also
			// on a machine built with another window length, which
			// ResetWindows sets.
			dirty := func(window float64) *Machine {
				m := NewMachine(cfg, window)
				m.SetLLCPartition(5)
				driveMixed(m, stats.HashSeed(99, cfg.Name), 60_000)
				return m
			}
			reused := dirty(40_000)
			reused.Reset()
			rewindowed := dirty(90_000)
			rewindowed.ResetWindows(40_000)
			for name, m := range map[string]*Machine{"Reset": reused, "ResetWindows": rewindowed} {
				gotS, gotW, gotTot, gotBusy := collect(m)
				if len(gotS) != len(wantS) {
					t.Fatalf("%s: sample count %d != fresh %d", name, len(gotS), len(wantS))
				}
				for i := range gotS {
					if gotS[i] != wantS[i] {
						t.Fatalf("%s: window %d diverged:\n got %+v\nwant %+v", name, i, gotS[i], wantS[i])
					}
				}
				if len(gotW) != len(wantW) {
					t.Fatalf("%s: wall sample count %d != fresh %d", name, len(gotW), len(wantW))
				}
				for i := range gotW {
					if gotW[i] != wantW[i] {
						t.Fatalf("%s: wall window %d diverged: got %+v want %+v", name, i, gotW[i], wantW[i])
					}
				}
				if gotTot != wantTot || gotBusy != wantBusy {
					t.Fatalf("%s: cycle totals diverged: got (%g, %g) want (%g, %g)", name, gotTot, gotBusy, wantTot, wantBusy)
				}
			}
		})
	}
}

// TestResetRestoresPartitionAndClocks checks the state Flush deliberately
// leaves behind is rewound by Reset.
func TestResetRestoresPartitionAndClocks(t *testing.T) {
	c := NewCache(CacheConfig{Name: "L", SizeBytes: 1 << 20, Ways: 8, Policy: LRU})
	c.SetPartition(2)
	for i := 0; i < 10_000; i++ {
		c.Access(uint64(i * trace.LineSize))
	}
	c.Reset()
	if c.Partition() != 8 {
		t.Fatalf("partition %d after Reset, want full 8", c.Partition())
	}
	for s := range c.state {
		if c.state[s] != 0 {
			t.Fatalf("set %d state %#x after Reset, want empty", s, c.state[s])
		}
	}
	if a, m := c.Stats(); a != 0 || m != 0 {
		t.Fatalf("stats (%d, %d) after Reset", a, m)
	}

	tl := NewTLB(TLBConfig{Name: "T", Entries: 64, Ways: 4, PageBytes: 4096})
	for i := 0; i < 10_000; i++ {
		tl.Access(uint64(i * 4096))
	}
	if tl.clock == 0 {
		t.Fatal("expected TLB clock to advance")
	}
	tl.Reset()
	if tl.clock != 0 {
		t.Fatalf("TLB clock %d after Reset, want 0", tl.clock)
	}
	for i, e := range tl.entries {
		if e.stamp != 0 {
			t.Fatalf("TLB stamp[%d] = %d after Reset", i, e.stamp)
		}
	}
}

// TestPow2IndexingMatchesDivision forces the TLB's set-division path on a
// power-of-two TLB and checks the hit/miss stream is identical to the
// shift-and-mask fast path.
func TestPow2IndexingMatchesDivision(t *testing.T) {
	rng := stats.NewRNG(21)
	tcfg := TLBConfig{Name: "T", Entries: 128, Ways: 4, PageBytes: 4096}
	ft := NewTLB(tcfg)
	st := NewTLB(tcfg)
	if ft.setShift < 0 {
		t.Fatalf("expected pow2 TLB for %+v", tcfg)
	}
	st.setShift = -1
	for i := 0; i < 200_000; i++ {
		addr := uint64(rng.IntN(1 << 28))
		if ft.Access(addr) != st.Access(addr) {
			t.Fatalf("TLB hit/miss diverged at access %d", i)
		}
	}

	// Silvermont's 48-entry TLBs land on 12 sets — the non-pow2 fallback
	// must engage there.
	nt := NewTLB(Silvermont().ITLB)
	if nt.setShift != -1 {
		t.Fatalf("Silvermont ITLB sets should take the division path, got shift %d", nt.setShift)
	}
}

// TestReserveSamplesKeepsContents grows buffers without disturbing
// already-collected windows.
func TestReserveSamplesKeepsContents(t *testing.T) {
	m := NewMachine(Broadwell(), 20_000)
	driveMixed(m, 5, 30_000)
	before := append([]WindowSample(nil), m.Samples()...)
	m.ReserveSamples(len(before) + 500)
	if cap(m.samples) < len(before)+500 {
		t.Fatalf("capacity %d, want >= %d", cap(m.samples), len(before)+500)
	}
	for i, s := range m.Samples() {
		if s != before[i] {
			t.Fatalf("sample %d changed by ReserveSamples", i)
		}
	}
}
