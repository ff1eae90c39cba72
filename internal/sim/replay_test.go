package sim

import (
	"fmt"
	"testing"

	"datamime/internal/stats"
)

// The taped warm's lane replay (Cache.replayPure) against the install it
// stands for: a DRRIP cache that has only ever installed absent lines must
// end, after replayPure, exactly where line-by-line installs leave it.

// pureStream returns n climbing line addresses from next, each above the
// last, and the line after them. kind picks which sets they fall in:
// duelSRRIP only SRRIP-leader sets (la ≡ 0 mod 32), duelBRRIP only
// BRRIP-leader sets (la ≡ 1 mod 32), anything else every set, with gaps of
// up to two lines. Leader-only streams skip a block of 32 now and then.
func pureStream(rng *stats.RNG, n int, next uint64, kind int) (lines []uint64, after uint64) {
	for len(lines) < n {
		switch kind {
		case duelSRRIP, duelBRRIP:
			next += (32 - next%32 + uint64(kind)) % 32
			lines = append(lines, next)
			next += 32 * uint64(1+rng.IntN(2))
		default:
			lines = append(lines, next)
			next += uint64(1 + rng.IntN(3))
		}
	}
	return lines, next
}

// The leader kinds of pureStream, named by the set-duel position of their
// sets.
const (
	duelSRRIP = 0
	duelBRRIP = 1
	duelAll   = 2
)

// pureCaches returns two empty DRRIP caches of sets sets at ways ways: of
// a ways-way configuration when full, else of a 16-way configuration
// partitioned to ways, as an LLC lane or a partitioned main lane is.
func pureCaches(ways, sets int, partitioned bool) (a, b *Cache) {
	cfgWays := ways
	if partitioned {
		cfgWays = maxWays
	}
	cfg := CacheConfig{Name: "L3", SizeBytes: sets * cfgWays * 64, Ways: cfgWays, Policy: DRRIP}
	a, b = NewCache(cfg), NewCache(cfg)
	a.SetPartition(ways)
	b.SetPartition(ways)
	return a, b
}

// assertPureMatches compares every bit a later access reads: state words,
// valid tags, the policy selector, the BRRIP counter and Stats().
func assertPureMatches(t *testing.T, name string, got, want *Cache) {
	t.Helper()
	if got.psel != want.psel || got.brripCount != want.brripCount {
		t.Fatalf("%s: psel %d, brripCount %d; install gives %d, %d", name, got.psel, got.brripCount, want.psel, want.brripCount)
	}
	ga, gm := got.Stats()
	wa, wm := want.Stats()
	if ga != wa || gm != wm {
		t.Fatalf("%s: Stats %d/%d; install gives %d/%d", name, ga, gm, wa, wm)
	}
	pw := got.partWays
	for s := range got.state {
		if got.state[s] != want.state[s] {
			t.Fatalf("%s: set %d state %#x; install gives %#x", name, s, got.state[s], want.state[s])
		}
		n := got.fill(s)
		for i, tag := range got.tags[s*pw : s*pw+n] {
			if w := want.tags[s*pw+i]; tag != w {
				t.Fatalf("%s: set %d way %d holds tag %#x; install gives %#x", name, s, i, tag, w)
			}
		}
	}
}

// replayInChunks replays lines on c through replayPure in chunks of random
// length up to tapeLines, as the tape reaches the lanes.
func replayInChunks(rng *stats.RNG, c *Cache, lines []uint64) {
	for len(lines) > 0 {
		n := min(len(lines), 1+rng.IntN(tapeLines))
		c.replayPure(lines[:n])
		lines = lines[n:]
	}
}

// checkPureReplay drives one pair of caches through the phases of
// TestPureReplayMatchesInstall, with scale/4 of the full length of its
// every-set phases, and compares them after each. It returns the highest
// and lowest psel the phases ended at, and the final BRRIP counter.
func checkPureReplay(t *testing.T, rng *stats.RNG, ways, sets int, partitioned bool, scale int) (hi, lo, brrip int) {
	t.Helper()
	got, want := pureCaches(ways, sets, partitioned)
	leaderLines := ways * max(1, sets/32) // what fills a kind's leader sets
	all := ways * sets
	next := uint64(rng.IntN(1 << 20))
	for phase, p := range []struct{ kind, n int }{
		{duelSRRIP, leaderLines + pselMax + 100},
		{duelAll, min(all, 3000) * scale / 4},
		{duelBRRIP, leaderLines + 2*pselMax + 100},
		{duelAll, min(all, 3000) * scale / 4},
		{duelSRRIP, leaderLines/2 + 300},
		{duelAll, (all + 500) * scale / 4},
	} {
		var lines []uint64
		lines, next = pureStream(rng, max(1, p.n), next, p.kind)
		replayInChunks(rng, got, lines)
		for _, la := range lines {
			want.install(want.split(la))
		}
		assertPureMatches(t, fmt.Sprintf("%d ways (partitioned %t), %d sets, after phase %d", ways, partitioned, sets, phase), got, want)
		hi, lo = max(hi, want.psel), min(lo, want.psel)
	}
	return hi, lo, want.brripCount
}

// TestPureReplayMatchesInstall runs every associativity from 1 to 16 ways,
// full and as a partition of 16, over set counts from 1 to 4096 — below,
// at and above the 32-set duel period — through climbing streams that miss
// only in SRRIP leaders (psel climbs to +512 and is held there), in every
// set (followers insert by BRRIP), only in BRRIP leaders (psel falls to
// −512), and in every set again (followers insert by SRRIP).
func TestPureReplayMatchesInstall(t *testing.T) {
	rng := stats.NewRNG(55)
	scale := 4
	if testing.Short() {
		scale = 2
	}
	reachedMax, reachedMin, crossed := false, false, 0
	for ways := 1; ways <= maxWays; ways++ {
		for sets := 1; sets <= 4096; sets *= 2 {
			for _, partitioned := range []bool{false, true} {
				if partitioned && ways == maxWays {
					continue
				}
				hi, lo, brrip := checkPureReplay(t, rng, ways, sets, partitioned, scale)
				reachedMax = reachedMax || hi == pselMax
				reachedMin = reachedMin || lo == -pselMax
				if brrip >= 3*32 {
					crossed++
				}
			}
		}
	}
	if !reachedMax || !reachedMin || crossed == 0 {
		t.Fatalf("the streams never drove psel to ±%d (+: %t, −: %t) or the BRRIP counter past 96 (%d caches did)", pselMax, reachedMax, reachedMin, crossed)
	}
}

// FuzzPureReplay is TestPureReplayMatchesInstall on fuzzed geometries and
// streams.
func FuzzPureReplay(f *testing.F) {
	f.Add(uint8(12), uint8(14), false, uint64(1), uint8(1))
	f.Add(uint8(1), uint8(0), false, uint64(2), uint8(4))
	f.Add(uint8(5), uint8(6), true, uint64(3), uint8(2))
	f.Fuzz(func(t *testing.T, ways, setsLog uint8, partitioned bool, seed uint64, scale uint8) {
		w := 1 + int(ways)%maxWays
		sets := 1 << (setsLog % 13)
		checkPureReplay(t, stats.NewRNG(seed), w, sets, partitioned && w < maxWays, 1+int(scale)%4)
	})
}
