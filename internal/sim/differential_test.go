package sim

import (
	"fmt"
	"testing"

	"datamime/internal/stats"
	"datamime/internal/trace"
)

// The kernel's randomised differential: seeded generated streams drive the
// kernel's caches and machines and the reference (reference_test.go) over
// random geometries — 1 to 16 ways, 1 to 1024 sets, LRU or DRRIP at each
// level, every partition width, with flushes, resets and repartitions
// between phases — and every access's hit or miss, every window sample,
// every Stats() and every set's replacement order must agree. At every
// allocation a lane-carrying recording must restore the machine a classic
// warm leaves. The fixed matrices of kernel_test.go and tape_test.go pin
// the Table II machines; this covers the geometries they do not.

// randomCacheConfig returns a cache of 1–16 ways and 1–1024 sets.
func randomCacheConfig(rng *stats.RNG, name string) CacheConfig {
	ways, sets := 1+rng.IntN(maxWays), 1<<rng.IntN(11)
	policy := LRU
	if rng.Bool(0.5) {
		policy = DRRIP
	}
	return CacheConfig{Name: name, SizeBytes: sets * ways * trace.LineSize, Ways: ways, Policy: policy, LatencyCyc: 4 + rng.IntN(40)}
}

// randomAddrs returns a stream of n byte addresses over a footprint of
// lines: uniform traffic, a hot subset, and sequential runs.
func randomAddrs(rng *stats.RNG, n, lines int) []uint64 {
	addrs := make([]uint64, 0, n)
	hot := 1 + lines/8
	for len(addrs) < n {
		switch rng.IntN(3) {
		case 0:
			addrs = append(addrs, uint64(rng.IntN(lines))*trace.LineSize+uint64(rng.IntN(trace.LineSize)))
		case 1:
			addrs = append(addrs, uint64(rng.IntN(hot))*trace.LineSize)
		case 2:
			start := rng.IntN(lines)
			for i := 0; i < 1+rng.IntN(32) && len(addrs) < n; i++ {
				addrs = append(addrs, uint64(start+i)*trace.LineSize)
			}
		}
	}
	return addrs
}

// TestCacheMatchesReferenceOnRandomGeometries drives one cache and one
// reference cache with the same accesses, phase by phase, and compares
// every hit or miss and, after each phase, statistics, replacement order
// and dueling state. Between phases it flushes, resets, or repartitions to
// any width. Shrinking a non-empty LRU partition is the one place the two
// differ by design — the kernel keeps the w most recent lines of a set, the
// reference the lines in its first w physical ways — so that case is
// checked against the reference's recency order and then both are reset.
func TestCacheMatchesReferenceOnRandomGeometries(t *testing.T) {
	rng := stats.NewRNG(35)
	cases := 300
	if testing.Short() {
		cases = 60
	}
	for c := 0; c < cases; c++ {
		cfg := randomCacheConfig(rng, fmt.Sprintf("case %d", c))
		got, ref := NewCache(cfg), newRefCache(cfg)
		lines := cfg.Sets() * cfg.Ways
		for phase := 0; phase < 6; phase++ {
			for i, a := range randomAddrs(rng, 200+rng.IntN(4*lines), lines*(1+rng.IntN(3))) {
				if g, r := got.Access(a), ref.Access(a); g != r {
					t.Fatalf("%s (%d sets × %d ways %v, partition %d) phase %d access %d (%#x): kernel hit %v, reference %v",
						cfg.Name, cfg.Sets(), cfg.Ways, cfg.Policy, got.partWays, phase, i, a, g, r)
				}
			}
			assertCacheMatchesRef(t, cfg.Name, got, ref)
			switch w := 1 + rng.IntN(cfg.Ways); rng.IntN(4) {
			case 0:
				got.Flush()
				ref.Flush()
			case 1:
				got.Reset()
				ref.Reset()
				got.SetPartition(w)
				ref.SetPartition(w)
			case 2:
				if cfg.Policy == LRU && w < got.partWays {
					checkLRUShrink(t, cfg.Name, got, ref, w)
					got.Reset()
					ref.Reset()
				}
				got.SetPartition(w)
				ref.SetPartition(w)
			}
		}
	}
}

// checkLRUShrink shrinks an LRU cache to w ways and checks each set kept
// its w most recent lines, in order.
func checkLRUShrink(t *testing.T, name string, got *Cache, ref *refCache, w int) {
	t.Helper()
	want := make([][]uint64, got.sets)
	for s := range want {
		tags, _ := refSet(t, name, ref, s)
		want[s] = tags[:min(len(tags), w)]
	}
	got.SetPartition(w)
	for s := range want {
		if have := got.tags[s*w:][:got.fill(s)]; fmt.Sprint(have) != fmt.Sprint(want[s]) {
			t.Fatalf("%s set %d after shrinking to %d ways holds %#x, want the most recent %#x", name, s, w, have, want[s])
		}
	}
}

// randomMachineConfig returns Broadwell with random L1s, L2 and, on half
// the draws, a random L3 — none for the rest, so the L2 is the LLC.
func randomMachineConfig(rng *stats.RNG, n int) MachineConfig {
	cfg := Broadwell()
	cfg.Name = fmt.Sprintf("random-%d", n)
	cfg.L1I = randomCacheConfig(rng, "L1I")
	cfg.L1D = randomCacheConfig(rng, "L1D")
	cfg.L2 = randomCacheConfig(rng, "L2")
	cfg.L3 = nil
	if rng.Bool(0.5) {
		l3 := randomCacheConfig(rng, "L3")
		cfg.L3 = &l3
	}
	return cfg
}

// genMachineEvents is genKernelEvents over a footprint scaled to the
// machine's LLC, so small random hierarchies see hits as well as misses.
func genMachineEvents(rng *stats.RNG, n int, llcBytes int) []kernelEvent {
	foot := 4 * llcBytes
	evs := make([]kernelEvent, 0, n)
	for len(evs) < n {
		switch rng.IntN(10) {
		case 0, 1, 2:
			evs = append(evs, kernelEvent{kind: 0, addr: uint64(rng.IntN(foot)), size: 1 + rng.IntN(200)})
		case 3:
			a := uint64(rng.IntN(foot))
			evs = append(evs, kernelEvent{kind: 0, addr: a, size: 8}, kernelEvent{kind: 1, addr: a, size: 8})
		case 4:
			evs = append(evs, kernelEvent{kind: 1, addr: uint64(rng.IntN(foot / 4)), size: 64 + rng.IntN(512)})
		case 5, 6:
			evs = append(evs, kernelEvent{kind: 2, reg: rng.IntN(4), val: 8 + rng.IntN(640)})
		case 7:
			evs = append(evs, kernelEvent{kind: 3, addr: uint64(rng.IntN(64)) * 8, val: rng.IntN(2)})
		case 8:
			evs = append(evs, kernelEvent{kind: 4, val: 1 + rng.IntN(50)})
		case 9:
			evs = append(evs, kernelEvent{kind: 5, val: rng.IntN(3000)})
		}
	}
	return evs
}

// TestKernelMatchesReferenceOnRandomGeometries drives a kernel machine and
// a reference machine over random hierarchies, phase by phase, with window
// flushes, resets and LLC repartitions between phases, comparing every
// window sample, statistic and set after each phase. Then it warms one
// machine carrying a lane for every allocation, whose every lane must equal
// a classic warm at its allocation — itself checked against the reference.
func TestKernelMatchesReferenceOnRandomGeometries(t *testing.T) {
	rng := stats.NewRNG(9)
	cases := 40
	if testing.Short() {
		cases = 10
	}
	const windowCycles = 3000
	for c := 0; c < cases; c++ {
		cfg := randomMachineConfig(rng, c)
		llcBytes := cfg.LLC().SizeBytes
		kern, ref := NewMachine(cfg, windowCycles), newRefMachine(cfg, windowCycles)
		regions := [2][]*trace.CodeRegion{kernelTestRegions(), kernelTestRegions()}
		for phase := 0; phase < 4; phase++ {
			evs := genMachineEvents(rng, 1500, llcBytes)
			replayKernelEvents(kern, regions[0], evs)
			replayKernelEvents(ref, regions[1], evs)
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

		warm := genMachineEvents(rng, 1500, llcBytes)
		drive := func(m eventSink) { replayKernelEvents(m, kernelTestRegions(), warm) }
		multi := NewMachine(cfg, windowCycles)
		lanes := make([]*Lane, 0, cfg.LLCWays())
		for _, ways := range allWays(cfg) {
			lanes = append(lanes, multi.AddLane(ways))
		}
		multi.Warm(warmer(func(trace.Collector) { drive(laned{multi}) }))
		for ways := 1; ways <= cfg.LLCWays(); ways++ {
			classic, ref := NewMachine(cfg, windowCycles), newRefMachine(cfg, windowCycles)
			for _, m := range []testMachine{classic, ref} {
				m.SetLLCPartition(ways)
				drive(m)
				m.FlushSamples()
			}
			assertMachinesMatch(t, classic, ref)
			assertLaneMatches(t, lanes[ways-1], classic)
			if t.Failed() {
				t.Fatalf("%s (%+v): the %d-way lane diverged from a classic warm", cfg.Name, cfg, ways)
			}
		}
	}
}
