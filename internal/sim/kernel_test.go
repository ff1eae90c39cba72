package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"datamime/internal/trace"
)

// The batched kernel must be observationally identical to the scalar
// reference walk over the reference caches (reference_test.go): identical
// window samples, wall samples, cycle totals, per-level access/miss
// statistics, and identical cache/TLB residency and replacement order. The
// reference's LRU clock values are not compared — coalescing elides
// re-touches of already-MRU lines, which skips clock increments without
// changing recency order, and the kernel's caches keep the order alone.

// eventSink is what the tests drive: a kernel Machine or a refMachine.
type eventSink interface {
	trace.Collector
	Idle(cyc float64)
}

// testMachine is an eventSink the tests also partition, flush and reset.
type testMachine interface {
	eventSink
	SetLLCPartition(ways int)
	FlushSamples()
	Reset()
}

// kernelEvent is one replayable trace event.
type kernelEvent struct {
	kind int // 0 load, 1 store, 2 exec, 3 branch, 4 ops, 5 idle
	addr uint64
	size int
	reg  int
	val  int
}

// genKernelEvents builds a deterministic mixed stream exercising every path
// the kernel specializes: multi-line accesses, repeated same-line accesses
// (coalescing), LLC-pressure random traffic, instruction loops over tiny
// and large regions, branches, idle gaps.
func genKernelEvents(n int, seed int64) []kernelEvent {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]kernelEvent, 0, n)
	const hot = uint64(1 << 20)
	for len(evs) < n {
		switch rng.Intn(12) {
		case 0, 1, 2: // random loads across 32 MB: L2/LLC/memory pressure
			evs = append(evs, kernelEvent{kind: 0, addr: uint64(rng.Intn(32 << 20)), size: 8 + rng.Intn(64)})
		case 3: // back-to-back same-line accesses: coalescing fodder
			a := hot + uint64(rng.Intn(256)&^7)
			evs = append(evs,
				kernelEvent{kind: 0, addr: a, size: 8},
				kernelEvent{kind: 0, addr: a, size: 8},
				kernelEvent{kind: 1, addr: a + 4, size: 4},
			)
		case 4: // same line leading a multi-line access: partial coalesce
			a := hot + uint64(rng.Intn(4096)&^63)
			evs = append(evs,
				kernelEvent{kind: 0, addr: a, size: 8},
				kernelEvent{kind: 0, addr: a, size: 192},
			)
		case 5: // multi-line store bursts (MLP path)
			evs = append(evs, kernelEvent{kind: 1, addr: uint64(rng.Intn(1 << 20)), size: 64 + rng.Intn(512)})
		case 6, 7: // instruction fetch over a random region
			evs = append(evs, kernelEvent{kind: 2, reg: rng.Intn(4), val: 8 + rng.Intn(640)})
		case 8: // tight loop on the one-line region: instruction coalescing
			evs = append(evs,
				kernelEvent{kind: 2, reg: 0, val: 8},
				kernelEvent{kind: 2, reg: 0, val: 8},
				kernelEvent{kind: 2, reg: 0, val: 8},
			)
		case 9:
			evs = append(evs, kernelEvent{kind: 3, addr: uint64(rng.Intn(64)) * 8, val: rng.Intn(2)})
		case 10:
			evs = append(evs, kernelEvent{kind: 4, val: 1 + rng.Intn(50)})
		case 11:
			evs = append(evs, kernelEvent{kind: 5, val: rng.Intn(3000)})
		}
	}
	return evs[:n]
}

// kernelTestRegions builds a fresh region set per machine: regions carry a
// mutable cursor, so the two replays must not share them.
func kernelTestRegions() []*trace.CodeRegion {
	cl := trace.NewCodeLayout()
	return []*trace.CodeRegion{
		cl.Region("loop1", 1),      // one line: every fetch re-touches it
		cl.Region("small", 3*64),   // wraps quickly
		cl.Region("mid", 40*64),    // L1I-resident
		cl.Region("large", 900*64), // exceeds the 512-line L1I
	}
}

func replayKernelEvents(m eventSink, regions []*trace.CodeRegion, evs []kernelEvent) {
	for _, e := range evs {
		switch e.kind {
		case 0:
			m.Load(e.addr, e.size)
		case 1:
			m.Store(e.addr, e.size)
		case 2:
			m.Exec(regions[e.reg], e.val)
		case 3:
			m.Branch(e.addr, e.val == 1)
		case 4:
			m.Ops(e.val)
		case 5:
			m.Idle(float64(e.val))
		}
	}
}

// refSet returns the valid lines of one reference set in the order the
// kernel's cache keeps them — most recent first under LRU, physical ways
// under DRRIP, where they must be a prefix of the set — with their RRPVs.
func refSet(t *testing.T, name string, c *refCache, set int) (tags, rrpvs []uint64) {
	t.Helper()
	type line struct {
		tag  uint64
		meta uint32
	}
	var lines []line
	for i, ln := range c.lines[set*c.ways : set*c.ways+c.ways] {
		if ln.gen != c.gen {
			continue
		}
		if i >= c.partWays || (c.isDRRIP && i != len(lines)) {
			t.Fatalf("%s set %d: valid reference line in way %d outside the prefix", name, set, i)
		}
		lines = append(lines, line{ln.tag, ln.meta})
	}
	if !c.isDRRIP {
		sort.Slice(lines, func(i, j int) bool { return lines[i].meta > lines[j].meta })
	}
	for _, ln := range lines {
		tags = append(tags, ln.tag)
		rrpvs = append(rrpvs, uint64(ln.meta))
	}
	return tags, rrpvs
}

// assertCacheMatchesRef compares a kernel cache with a reference cache:
// statistics, partition, dueling state, and every set's lines in
// replacement order, with their RRPVs under DRRIP.
func assertCacheMatchesRef(t *testing.T, name string, got *Cache, ref *refCache) {
	t.Helper()
	gAcc, gMiss := got.Stats()
	rAcc, rMiss := ref.Stats()
	if gAcc != rAcc || gMiss != rMiss {
		t.Errorf("%s stats diverge: kernel %d/%d reference %d/%d", name, gAcc, gMiss, rAcc, rMiss)
	}
	if got.partWays != ref.partWays || got.sets != ref.sets {
		t.Fatalf("%s geometry diverges: kernel %d sets × %d ways, reference %d × %d", name, got.sets, got.partWays, ref.sets, ref.partWays)
	}
	for s := 0; s < got.sets; s++ {
		tags, rrpvs := refSet(t, name, ref, s)
		have := got.tags[s*got.partWays:][:got.fill(s)]
		if !reflect.DeepEqual(append([]uint64{}, have...), append([]uint64{}, tags...)) {
			t.Fatalf("%s set %d lines diverge: kernel %#x reference %#x", name, s, have, tags)
		}
		for i, r := range rrpvs {
			if got.isDRRIP && got.state[s]>>(2*i)&rrpvMax != r {
				t.Fatalf("%s set %d way %d RRPV diverges: kernel %d reference %d", name, s, i, got.state[s]>>(2*i)&rrpvMax, r)
			}
		}
	}
	if got.psel != ref.psel || got.brripCount != ref.brripCount {
		t.Errorf("%s dueling state diverges: psel %d/%d brrip %d/%d", name, got.psel, ref.psel, got.brripCount, ref.brripCount)
	}
}

// assertCachesIdentical compares two kernel caches word for word: every
// set's state word and lines, the partition, statistics and dueling state.
func assertCachesIdentical(t *testing.T, name string, a, b *Cache) {
	t.Helper()
	if a.partWays != b.partWays || a.accesses != b.accesses || a.misses != b.misses ||
		a.psel != b.psel || a.brripCount != b.brripCount {
		t.Fatalf("%s partition, stats or dueling diverge: %d ways %d/%d psel %d brrip %d vs %d ways %d/%d psel %d brrip %d",
			name, a.partWays, a.accesses, a.misses, a.psel, a.brripCount, b.partWays, b.accesses, b.misses, b.psel, b.brripCount)
	}
	for s := range a.state {
		if a.state[s] != b.state[s] {
			t.Fatalf("%s set %d state diverges: %#x vs %#x", name, s, a.state[s], b.state[s])
		}
		n := a.fill(s)
		if !reflect.DeepEqual(a.tags[s*a.partWays:][:n], b.tags[s*b.partWays:][:n]) {
			t.Fatalf("%s set %d lines diverge", name, s)
		}
	}
}

func assertTLBsMatch(t *testing.T, name string, a, b *TLB) {
	t.Helper()
	aAcc, aMiss := a.Stats()
	bAcc, bMiss := b.Stats()
	if aAcc != bAcc || aMiss != bMiss {
		t.Errorf("%s stats diverge: batched %d/%d scalar %d/%d", name, aAcc, aMiss, bAcc, bMiss)
	}
	for i := range a.entries {
		if a.entries[i].valid != b.entries[i].valid {
			t.Fatalf("%s entry %d validity diverges", name, i)
		}
		if a.entries[i].valid && a.entries[i].tag != b.entries[i].tag {
			t.Fatalf("%s entry %d tag diverges: batched %#x scalar %#x",
				name, i, a.entries[i].tag, b.entries[i].tag)
		}
	}
}

// assertOutputsMatch pins the two machines' samples, cycle totals, open
// window and TLBs.
func assertOutputsMatch(t *testing.T, batched, scalar *Machine) {
	t.Helper()
	if len(batched.Samples())+len(scalar.Samples()) > 0 && !reflect.DeepEqual(batched.Samples(), scalar.Samples()) {
		t.Errorf("window samples diverge: batched %d windows, scalar %d windows",
			len(batched.Samples()), len(scalar.Samples()))
		for i := range batched.Samples() {
			if i < len(scalar.Samples()) && batched.Samples()[i] != scalar.Samples()[i] {
				t.Fatalf("first divergence at window %d:\n  batched %+v\n  scalar  %+v",
					i, batched.Samples()[i], scalar.Samples()[i])
			}
		}
	}
	if len(batched.WallSamples())+len(scalar.WallSamples()) > 0 && !reflect.DeepEqual(batched.WallSamples(), scalar.WallSamples()) {
		t.Errorf("wall samples diverge")
	}
	if batched.TotalCycles() != scalar.TotalCycles() || batched.BusyCycles() != scalar.BusyCycles() {
		t.Errorf("cycle totals diverge: batched %g/%g scalar %g/%g",
			batched.BusyCycles(), batched.TotalCycles(), scalar.BusyCycles(), scalar.TotalCycles())
	}
	if batched.win != scalar.win {
		t.Errorf("open window counters diverge:\n  batched %+v\n  scalar  %+v", batched.win, scalar.win)
	}
	assertTLBsMatch(t, "ITLB", batched.itlb, scalar.itlb)
	assertTLBsMatch(t, "DTLB", batched.dtlb, scalar.dtlb)
}

// assertMachinesMatch pins every observable output of a kernel machine
// against the reference walk.
func assertMachinesMatch(t *testing.T, batched *Machine, ref *refMachine) {
	t.Helper()
	assertOutputsMatch(t, batched, ref.Machine)
	assertCacheMatchesRef(t, "L1I", batched.l1i, ref.l1i)
	assertCacheMatchesRef(t, "L1D", batched.l1d, ref.l1d)
	assertCacheMatchesRef(t, "L2", batched.l2, ref.l2)
	if batched.l3 != nil {
		assertCacheMatchesRef(t, "L3", batched.l3, ref.l3)
	}
}

// equivalenceConfigs is the test matrix: all three Table II machines as
// configured (Broadwell's L3 is DRRIP, the rest LRU), plus policy-flipped
// LLC variants so both policies are exercised on every topology, plus a
// DRRIP-L1D variant that must disable data-side coalescing.
func equivalenceConfigs() map[string]MachineConfig {
	broadwellLRU := Broadwell()
	broadwellLRU.Name = "broadwell-lru-llc"
	broadwellLRU.L3.Policy = LRU

	zen2DRRIP := Zen2()
	zen2DRRIP.Name = "zen2-drrip-llc"
	zen2DRRIP.L3.Policy = DRRIP

	silvermontDRRIP := Silvermont()
	silvermontDRRIP.Name = "silvermont-drrip-l2"
	silvermontDRRIP.L2.Policy = DRRIP

	drripL1 := Broadwell()
	drripL1.Name = "broadwell-drrip-l1d"
	drripL1.L1D.Policy = DRRIP
	drripL1.L1I.Policy = DRRIP

	return map[string]MachineConfig{
		"broadwell":          Broadwell(),
		"zen2":               Zen2(),
		"silvermont":         Silvermont(),
		broadwellLRU.Name:    broadwellLRU,
		zen2DRRIP.Name:       zen2DRRIP,
		silvermontDRRIP.Name: silvermontDRRIP,
		drripL1.Name:         drripL1,
	}
}

// TestBatchedMatchesScalar drives identical event streams through a
// batched-kernel machine and a forced-scalar machine across the full
// machine × policy × partition matrix, including a warm re-measure (the
// profiler's FlushSamples between warmup and measurement) and a Reset replay
// (the sweep's machine reuse). Subtests run in parallel so the -race CI pass
// exercises concurrent kernel machines.
func TestBatchedMatchesScalar(t *testing.T) {
	const windowCycles = 5000
	evs := genKernelEvents(6000, 42)
	for name, cfg := range equivalenceConfigs() {
		for _, part := range []int{0, 2} { // full LLC, 2-way CAT partition
			cfg, part := cfg, part
			label := name + "/full"
			if part > 0 {
				label = name + "/part2"
			}
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				batched := NewMachine(cfg, windowCycles)
				scalar := newRefMachine(cfg, windowCycles)

				run := func(m testMachine) {
					if part > 0 {
						m.SetLLCPartition(part)
					}
					regions := kernelTestRegions()
					replayKernelEvents(m, regions, evs[:3000])
					m.FlushSamples() // profiler warmup boundary, state stays warm
					replayKernelEvents(m, regions, evs[3000:])
				}
				run(batched)
				run(scalar)
				assertMachinesMatch(t, batched, scalar)

				// Reset and replay: the sweep reuses machines across runs.
				batched.Reset()
				scalar.Reset()
				run(batched)
				run(scalar)
				assertMachinesMatch(t, batched, scalar)
			})
		}
	}
}

// TestKernelCoalescingElidesProbes proves the fast path actually engages:
// back-to-back same-line loads must skip the redundant DTLB/L1D probes
// (visible as a DTLB clock that advanced once) while still counting as
// accesses.
func TestKernelCoalescingElidesProbes(t *testing.T) {
	batched := NewMachine(Broadwell(), 1e9)
	scalar := newRefMachine(Broadwell(), 1e9)
	if batched.l1d.isDRRIP {
		t.Fatal("data-side coalescing should be enabled on Broadwell (LRU L1D)")
	}
	for _, m := range []eventSink{batched, scalar} {
		m.Load(0x1000, 8)
		m.Load(0x1000, 8)
		m.Load(0x1008, 8)
	}
	bAcc, bMiss := batched.l1d.Stats()
	sAcc, sMiss := scalar.l1d.Stats()
	if bAcc != sAcc || bMiss != sMiss {
		t.Fatalf("stats diverge: batched %d/%d scalar %d/%d", bAcc, bMiss, sAcc, sMiss)
	}
	if bAcc != 3 || bMiss != 1 {
		t.Fatalf("want 3 accesses / 1 miss, got %d/%d", bAcc, bMiss)
	}
	// The scalar walk probes the DTLB three times; the kernel installs once
	// and elides both repeats.
	if batched.dtlb.clock != 1 || scalar.dtlb.clock != 3 {
		t.Fatalf("coalescing did not elide probes: batched DTLB clock %d, scalar %d",
			batched.dtlb.clock, scalar.dtlb.clock)
	}
}

// TestKernelDisabledOnDRRIPL1 pins the coalescing guard: a DRRIP L1's hit
// promotion (RRPV to 0) is not elidable, so coalescing must be off.
func TestKernelDisabledOnDRRIPL1(t *testing.T) {
	cfg := Broadwell()
	cfg.L1D.Policy = DRRIP
	cfg.L1I.Policy = DRRIP
	m := NewMachine(cfg, 1e9)
	if !m.l1d.isDRRIP || !m.l1i.isDRRIP {
		t.Fatal("coalescing must be disabled for DRRIP L1 caches")
	}
}

// TestValidateRejectsExoticGeometry pins the kernel's envelope at the
// configuration boundary: every Table II machine validates and walks the
// kernel (Silvermont's 12-set TLBs through its division branch), while a
// non-power-of-two cache set count, more ways than a set's packed state
// holds, or a sub-line page is an error naming the offender — there is no
// scalar fallback to route it through.
func TestValidateRejectsExoticGeometry(t *testing.T) {
	for _, cfg := range []MachineConfig{Broadwell(), Zen2(), Silvermont()} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}
	m := NewMachine(Silvermont(), 1e9)
	if m.dtlb.setShift >= 0 || m.itlb.setShift >= 0 || m.dtlb.sets != 12 {
		t.Fatalf("Silvermont TLBs should take the division branch: %+v", m.dtlb)
	}
	m.Load(0x2000, 128)
	if acc, _ := m.l1d.Stats(); acc != 2 {
		t.Fatalf("kernel walked %d lines, want 2", acc)
	}

	wideL3 := Broadwell()
	wideL3.L3 = &CacheConfig{Name: "L3", SizeBytes: 36 << 20, Ways: 24, Policy: DRRIP, LatencyCyc: 40}
	manyWays := Broadwell()
	manyWays.L3 = &CacheConfig{Name: "L3", SizeBytes: 32 << 20, Ways: 32, Policy: DRRIP, LatencyCyc: 40}
	tinyPages := Broadwell()
	tinyPages.DTLB.PageBytes = 32 // smaller than a cache line
	oddPages := Broadwell()
	oddPages.ITLB.PageBytes = 3 << 10
	for _, tc := range []struct {
		cfg  MachineConfig
		want string
	}{
		{wideL3, "cache L3 has 24576 sets"},
		{manyWays, "cache L3 has 32 ways"},
		{tinyPages, "DTLB has 32-byte pages"},
		{oddPages, "ITLB has 3072-byte pages"},
	} {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate() = %v, want an error containing %q", err, tc.want)
		}
	}
}

// TestEventPathAllocatesNothing pins that the walk allocates nothing: on
// every Table II machine carrying two extra lanes with reserved sample
// buffers, loads, stores, fetches, branches, ops and idles — window closes
// and known misses included — make no allocation.
func TestEventPathAllocatesNothing(t *testing.T) {
	code := trace.NewCodeLayout().Region("f", 32<<10)
	for _, cfg := range Machines() {
		m := NewMachine(cfg, 20_000)
		lanes := []*Lane{&m.Lane, m.AddLane(1), m.AddLane(cfg.LLCWays() / 2)}
		for _, ln := range lanes {
			ln.ReserveSamples(1 << 12)
		}
		col := laned{m}
		// Stores ascend, so every run also steps lines above the mark
		// (stepKnownMiss).
		x, top := uint64(1), uint64(0x40000000)
		drive := func() {
			for i := 0; i < 3000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				r := x >> 33
				switch i % 6 {
				case 0:
					col.Load(0x10000000+r%(48<<20), 1+int(r%256))
				case 1:
					col.Store(top, 1+int(r%64))
					top += r % 256
				case 2:
					col.Exec(code, 1+int(r%200))
				case 3:
					col.Branch(r%256, r&1 == 0)
				case 4:
					col.Ops(1 + int(r%40))
				case 5:
					col.Idle(float64(r % 5000))
				}
			}
		}
		if allocs := testing.AllocsPerRun(5, drive); allocs != 0 {
			t.Errorf("%s: the event path allocated %v times per run", cfg.Name, allocs)
		}
		for _, ln := range lanes {
			if len(ln.Samples()) == 0 || len(ln.WallSamples()) == 0 {
				t.Fatalf("%s: the %d-way lane closed no window", cfg.Name, ln.Ways())
			}
		}
	}
}
