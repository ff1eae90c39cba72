// Package sim implements the trace-driven microarchitecture simulator that
// substitutes for the paper's hardware performance counters. It models
// set-associative caches (with LRU and DRRIP replacement and Intel
// CAT-style way partitioning), TLBs, a global-history branch predictor, and
// a width/penalty pipeline model, for three machines mirroring Table II
// (Broadwell, Zen 2, Silvermont). A Machine consumes trace events and
// produces windowed performance-counter samples — the raw material of
// Datamime's profiles.
package sim

import (
	"fmt"
	"math/bits"

	"datamime/internal/trace"
)

// ReplacementPolicy selects a cache's replacement algorithm.
type ReplacementPolicy int

const (
	// LRU is least-recently-used replacement.
	LRU ReplacementPolicy = iota
	// DRRIP is dynamic re-reference interval prediction (Jaleel et al.),
	// the policy of the Broadwell L3 in Table II: set-dueling between
	// SRRIP and BRRIP.
	DRRIP
)

func (p ReplacementPolicy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case DRRIP:
		return "DRRIP"
	default:
		return fmt.Sprintf("ReplacementPolicy(%d)", int(p))
	}
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	Ways       int
	Policy     ReplacementPolicy
	LatencyCyc int // access latency added on a hit at this level
}

// Sets returns the number of sets implied by size, ways, and 64-byte lines.
func (c CacheConfig) Sets() int {
	lines := c.SizeBytes / trace.LineSize
	if c.Ways <= 0 || lines < c.Ways {
		return 1
	}
	return lines / c.Ways
}

// maxWays bounds a cache level's associativity: one set's packed state — a
// 2-bit RRPV per way in 32 bits and the fill count beside it in one uint64 —
// holds at most this many ways (MachineConfig.Validate).
const maxWays = 16

// A set's state word: the fill count above fillShift, and for DRRIP the
// RRPV of way i in bits 2i and 2i+1 below it. RRPV bits of ways at or past
// the fill count are always zero.
const (
	fillShift = 32
	rrpvOnes  = 0x55555555 // the low bit of every way's RRPV field
)

// Cache is a set-associative cache over 64-byte lines. Set s keeps its
// valid lines as a prefix of tags[s*partWays:] — fill(s) tags, the rest of
// the set invalid — so a partition of w ways occupies sets×w tags, 8 bytes a
// line, contiguous however narrow it is. Under LRU the prefix is in recency
// order, most recent first, and that order is the whole replacement state.
// Under DRRIP a line keeps its physical way, and the set's state word holds
// the ways' 2-bit re-reference predictions.
type Cache struct {
	cfg      CacheConfig
	sets     int
	ways     int
	partWays int      // ways visible to the workload (CAT partition); also the set stride of tags
	tags     []uint64 // sets × partWays in use; capacity for sets × ways
	state    []uint64 // per set: fill count and packed RRPVs
	// setMask/setShift split a line address into set and tag (split); the
	// set count is a power of two (NewCache).
	setMask    uint64
	setShift   uint8
	accesses   uint64
	misses     uint64
	psel       int  // DRRIP set-dueling policy selector
	brripCount int  // BRRIP insertion de-rater
	isDRRIP    bool // cached policy check
}

// rrpvMax is the maximum re-reference prediction value for 2-bit DRRIP,
// duelMask picks out DRRIP's leader sets (every 32nd set leads a policy),
// and pselMax bounds the policy selector both ways.
const (
	rrpvMax  = 3
	duelMask = 31
	pselMax  = 512
)

// NewCache builds a cache from its configuration. It panics on
// non-positive sizes, on ways a set's packed state cannot hold, or on a set
// count that is not a power of two — what MachineConfig.Validate refuses:
// machine configs are static and must be valid.
func NewCache(cfg CacheConfig) *Cache {
	sets := cfg.Sets()
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.Ways > maxWays || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("sim: invalid cache config %+v", cfg))
	}
	c := new(Cache)
	c.init(cfg, make([]uint64, sets*cfg.Ways), make([]uint64, sets))
	return c
}

// init makes c an empty cache of configuration cfg over the given tag and
// state storage, with the full way allocation.
func (c *Cache) init(cfg CacheConfig, tags, state []uint64) {
	sets := cfg.Sets()
	*c = Cache{
		cfg:      cfg,
		sets:     sets,
		ways:     cfg.Ways,
		partWays: cfg.Ways,
		tags:     tags,
		state:    state,
		setMask:  uint64(sets - 1),
		setShift: uint8(bits.TrailingZeros(uint(sets))),
		isDRRIP:  cfg.Policy == DRRIP,
	}
	clear(state)
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// fill returns how many valid lines set s holds.
func (c *Cache) fill(s int) int { return int(c.state[s] >> fillShift) }

// SetPartition limits the ways the workload may use, emulating Intel CAT
// way-partitioning (the paper uses CAT to measure miss and IPC curves
// across cache allocations, §IV). ways <= 0 or >= total restores the full
// cache. Shrinking the partition to w ways drops lines past the first w of
// each set — under LRU the least recent, under DRRIP those in ways at or
// above w — and re-lays the sets out at the new stride.
func (c *Cache) SetPartition(ways int) {
	if ways <= 0 || ways > c.ways {
		ways = c.ways
	}
	old := c.partWays
	switch {
	case ways < old:
		for s := 0; s < c.sets; s++ {
			n := c.fill(s)
			if n > ways {
				n = ways
				rrpv := c.state[s] & (1<<(2*ways) - 1)
				c.state[s] = uint64(n)<<fillShift | rrpv
			}
			copy(c.tags[s*ways:s*ways+n], c.tags[s*old:s*old+n])
		}
	case ways > old:
		for s := c.sets - 1; s >= 0; s-- {
			n := c.fill(s)
			copy(c.tags[s*ways:s*ways+n], c.tags[s*old:s*old+n])
		}
	}
	c.partWays = ways
}

// Partition returns the current way allocation.
func (c *Cache) Partition() int { return c.partWays }

// PartitionBytes returns the capacity of the current partition in bytes.
func (c *Cache) PartitionBytes() int {
	return c.sets * c.partWays * trace.LineSize
}

// Access looks up the line containing addr, updating replacement state, and
// reports whether it hit. On a miss the line is installed.
func (c *Cache) Access(addr uint64) (hit bool) { return c.access(c.split(addr >> lineShift)) }

// split returns the set and tag of line address la. Caches of one geometry
// split alike, so the kernel (kernel.go) splits a line once for every
// lane's LLC.
func (c *Cache) split(la uint64) (set, tag uint64) { return la & c.setMask, la >> c.setShift }

// access looks tag up in set, updating replacement state and installing it
// on a miss — the one implementation of both policies. Under LRU a hit
// moves the line to the front; under DRRIP it promotes the line to RRPV 0.
// A miss is install's.
func (c *Cache) access(set, tag uint64) bool {
	pw := c.partWays
	base := int(set) * pw
	ways := c.tags[base : base+pw : base+pw]
	st := c.state[set]
	for i, t := range ways[:st>>fillShift] {
		if t != tag {
			continue
		}
		c.accesses++
		if c.isDRRIP {
			c.state[set] = st &^ (rrpvMax << (2 * i))
			return true
		}
		// Move to the front: shift the more recent lines down one.
		for ; i > 0; i-- {
			ways[i] = ways[i-1]
		}
		ways[0] = tag
		return true
	}
	c.install(set, tag)
	return false
}

// install puts tag, known to be absent from set, into it: a miss, which
// reads nothing the compares of a probe would have. Under LRU the line goes
// to the front and the set moves down one at its full partition width
// (tags past the fill count are never read), dropping the least recent
// line of a full set. Under DRRIP it fills the first invalid way without
// dueling or, in a full set, evicts the first way holding the set's
// maximum RRPV after aging every way by rrpvMax minus that maximum — the
// algebraic collapse of the policy's age-until-a-max-RRPV-appears loop.
func (c *Cache) install(set, tag uint64) {
	c.accesses++
	c.misses++
	pw := c.partWays
	base := int(set) * pw
	ways := c.tags[base : base+pw : base+pw]
	sp := &c.state[set]
	st := *sp
	n := int(st >> fillShift)
	if c.isDRRIP {
		// Shift counts are masked to 63, which they never reach, so the
		// shifts compile without range checks: this runs for every lane.
		if n < pw {
			ways[n] = tag
			*sp = (st + 1<<fillShift) | c.insertRRPV(int(set))<<(uint(2*n)&63)
			return
		}
		victim, delta := rrpvVictim(uint32(st))
		st += delta * (rrpvOnes >> (uint(2*(maxWays-n)) & 63))
		ways[victim] = tag
		sh := uint(2*victim) & 63
		*sp = st&^(rrpvMax<<sh) | c.evictRRPV(int(set))<<sh
		return
	}
	if n < pw {
		*sp = st + 1<<fillShift
	}
	copy(ways[1:], ways)
	ways[0] = tag
}

// rrpvVictim returns the first way holding the maximum RRPV of a full set's
// packed RRPVs, and how far the set must age for that maximum to reach
// rrpvMax. The choice is written as overrides, lowest maximum first, which
// compile to conditional moves: the branches they replace mispredicted.
func rrpvVictim(r uint32) (way int, delta uint64) {
	hi := r >> 1 & rrpvOnes // RRPV >= 2
	lo := r & rrpvOnes      // RRPV odd
	m := lo
	delta = 2
	if lo == 0 {
		m, delta = 1, rrpvMax
	}
	if hi != 0 {
		m, delta = hi, 1
	}
	if hi&lo != 0 {
		m, delta = hi&lo, 0
	}
	return bits.TrailingZeros32(m) / 2, delta
}

// insertRRPV returns the RRPV of a line filling an invalid way of set:
// leader sets insert by their fixed policy, follower sets by the policy
// selector's winner.
func (c *Cache) insertRRPV(set int) uint64 {
	switch set & duelMask {
	case 0: // SRRIP leader
		return rrpvMax - 1
	case 1: // BRRIP leader
		return c.brripRRPV()
	}
	if c.psel > 0 {
		return c.brripRRPV()
	}
	return rrpvMax - 1
}

// evictRRPV is insertRRPV for a line that evicts another, whose miss first
// trains the selector if set leads a policy: a miss in an SRRIP leader
// votes for BRRIP and one in a BRRIP leader for SRRIP. A leader's insertion
// does not read the selector, so one switch does both.
func (c *Cache) evictRRPV(set int) uint64 {
	switch set & duelMask {
	case 0:
		if c.psel < pselMax {
			c.psel++
		}
		return rrpvMax - 1
	case 1:
		if c.psel > -pselMax {
			c.psel--
		}
		return c.brripRRPV()
	}
	if c.psel > 0 {
		return c.brripRRPV()
	}
	return rrpvMax - 1
}

// brripRRPV is BRRIP's insertion: at distant re-reference (rrpvMax) almost
// always, at rrpvMax-1 on every 32nd insertion — a deterministic de-rating.
// SRRIP inserts at rrpvMax-1.
func (c *Cache) brripRRPV() uint64 {
	c.brripCount++
	if c.brripCount%32 == 0 {
		return rrpvMax - 1
	}
	return rrpvMax
}

// replayPure installs the lines of tape in order, exactly as install would,
// into a DRRIP cache none of whose lines has hit since it was last empty
// and which holds none of them (the taped warm, cpu.go). Only a hit sets
// an RRPV below the insertion's rrpvMax-1, and aging only raises one, so
// every valid RRPV is 2 or 3: a full set evicts its first way at 3, or, if
// none is, ages every way from 2 to 3 and evicts way 0 — rrpvVictim's two
// cases that need no search — and psel and the BRRIP counter move as
// insertRRPV and evictRRPV move them.
func (c *Cache) replayPure(tape []uint64) {
	c.psel, c.brripCount = replayPureLines(c.state, c.tags, tape, c.setMask, c.setShift, uint64(c.partWays), c.psel, c.brripCount)
	c.accesses += uint64(len(tape))
	c.misses += uint64(len(tape))
}

// replayPureLines is Cache.replayPure's loop. It takes the cache's fields
// as arguments, which the compiler keeps in registers better than the
// method's locals (≈ 8 % faster), and returns psel and the BRRIP counter.
func replayPureLines(state, tags, tape []uint64, mask uint64, shift uint8, pw uint64, psel, brrip int) (int, int) {
	_ = state[mask] // so the loop's state[la&mask] needs no bounds check
	for _, la := range tape {
		set := la & mask
		st := state[set]
		n := st >> fillShift
		var way, next uint64
		if n < pw {
			way, next = n, st+1<<fillShift
		} else {
			// The victim is the first way at 3, or way 0 once every way,
			// all at 2, ages to 3 (TrailingZeros32 of zero is 32, which
			// the mask takes to 0).
			at3 := uint32(st) & rrpvOnes
			way = uint64(bits.TrailingZeros32(at3)/2) & (maxWays - 1)
			next = st
			if at3 == 0 {
				next = st | uint64(uint32(st)>>1)
			}
		}
		// A leader inserts by its own policy, and its miss in a full set
		// trains psel; a follower inserts by psel's winner.
		bimodal := psel > 0
		if lead := set & duelMask; lead < 2 {
			if n == pw {
				if lead == 0 {
					psel = min(psel+1, pselMax)
				} else {
					psel = max(psel-1, -pselMax)
				}
			}
			bimodal = lead == 1
		}
		r := uint64(rrpvMax - 1)
		if bimodal {
			if brrip++; brrip%32 != 0 {
				r = rrpvMax
			}
		}
		sh := way * 2 & 63
		state[set] = next&^(rrpvMax<<sh) | r<<sh
		tags[set*pw+way] = la >> (shift & 63)
	}
	return psel, brrip
}

// ringInstall is install for an LRU cache that keeps its sets as rings:
// while a set only installs absent lines, LRU evicts in insertion order,
// so the set need not move down one. The line goes to the set's write
// position, kept in the state word's low 32 bits (an LRU set has no RRPVs
// there): the way after its last line while it fills, then its oldest
// line's. unring restores recency order.
func (c *Cache) ringInstall(set, tag uint64) {
	c.accesses++
	c.misses++
	pw := uint64(c.partWays)
	st := c.state[set]
	w, n := uint64(uint32(st)), st>>fillShift
	c.tags[set*pw+w] = tag
	if w++; w == pw {
		w = 0
	}
	if n < pw {
		n++
	}
	c.state[set] = n<<fillShift | w
}

// unring lays every ring set (ringInstall) back out in recency order, most
// recent first, and clears its write position: a ring's lines run from
// the newest, just before the write position, back round to the oldest.
func (c *Cache) unring() {
	var buf [maxWays]uint64
	pw := c.partWays
	for s, st := range c.state {
		n, w := int(st>>fillShift), int(uint32(st))
		ways := c.tags[s*pw : s*pw+n]
		for i := range ways {
			if w == 0 {
				w = n
			}
			w--
			buf[i] = ways[w]
		}
		copy(ways, buf[:n])
		c.state[s] = st >> fillShift << fillShift
	}
}

// Stats returns lifetime accesses and misses.
func (c *Cache) Stats() (accesses, misses uint64) { return c.accesses, c.misses }

// Flush invalidates every line and resets statistics: every set's fill
// count drops to zero (8 bytes a set; tags are left to be overwritten).
func (c *Cache) Flush() {
	clear(c.state)
	c.accesses, c.misses = 0, 0
	c.psel, c.brripCount = 0, 0
}

// Reset restores the cache to the exact state of a freshly-constructed one:
// Flush plus the full way partition.
func (c *Cache) Reset() {
	c.Flush()
	c.partWays = c.ways
}
