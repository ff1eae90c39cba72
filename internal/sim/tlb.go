package sim

import (
	"fmt"
	"math/bits"

	"datamime/internal/trace"
)

// TLBConfig describes a translation lookaside buffer.
type TLBConfig struct {
	Name      string
	Entries   int
	Ways      int
	PageBytes int
}

// tlbEntry is one way of one TLB set. Packing tag, stamp, and validity into
// one 16-byte record keeps a 4-way set inside a single host cache line; the
// previous parallel-slice layout touched three lines per probe.
type tlbEntry struct {
	tag   uint64
	stamp uint32
	valid bool
}

// TLB is a set-associative TLB with LRU replacement.
type TLB struct {
	cfg  TLBConfig
	sets int
	ways int
	// pageLineShift converts a line address to its page number: a page is a
	// power-of-two number of lines (NewTLB). setMask/setShift split the page
	// number into set and tag when the set count is a power of two; setShift
	// -1 divides instead (Silvermont's 48-entry TLBs have 12 sets).
	pageLineShift uint8
	setMask       uint64
	setShift      int
	entries       []tlbEntry
	clock         uint32
	accesses      uint64
	misses        uint64
}

// NewTLB builds a TLB. It panics on an invalid configuration, including a
// page that is not a power-of-two multiple of the line — what
// MachineConfig.Validate refuses.
func NewTLB(cfg TLBConfig) *TLB {
	p := cfg.PageBytes
	if cfg.Entries <= 0 || cfg.Ways <= 0 || p < trace.LineSize || p&(p-1) != 0 {
		panic(fmt.Sprintf("sim: invalid TLB config %+v", cfg))
	}
	sets := cfg.Entries / cfg.Ways
	if sets < 1 {
		sets = 1
	}
	return &TLB{
		cfg:           cfg,
		sets:          sets,
		ways:          cfg.Ways,
		pageLineShift: uint8(bits.TrailingZeros(uint(p)) - lineShift),
		setMask:       uint64(sets - 1),
		setShift:      log2OrMinusOne(sets),
		entries:       make([]tlbEntry, sets*cfg.Ways),
	}
}

// log2OrMinusOne returns log2(n) when n is a positive power of two and -1
// otherwise, signalling that the division path must be used.
func log2OrMinusOne(n int) int {
	if n <= 0 || n&(n-1) != 0 {
		return -1
	}
	s := 0
	for n > 1 {
		n >>= 1
		s++
	}
	return s
}

// Config returns the TLB's configuration.
func (t *TLB) Config() TLBConfig { return t.cfg }

// Access translates addr, reporting whether the page was resident. Missing
// pages are installed with LRU replacement.
func (t *TLB) Access(addr uint64) (hit bool) { return t.access(addr >> lineShift) }

// access translates the page containing line address la — the TLB's one
// probe, which the kernel (kernel.go) calls with the line it steps: a
// single pass that hits, or installs the page over an invalid way, else
// over the least recently used one.
func (t *TLB) access(la uint64) bool {
	t.accesses++
	page := la >> t.pageLineShift
	var set int
	var tag uint64
	if t.setShift >= 0 {
		set = int(page & t.setMask)
		tag = page >> uint(t.setShift)
	} else {
		set = int(page % uint64(t.sets))
		tag = page / uint64(t.sets)
	}
	base := set * t.ways
	end := base + t.ways
	ways := t.entries[base:end:end]
	t.clock++
	victim, victimStamp := 0, ways[0].stamp
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].stamp = t.clock
			return true
		}
		if !ways[i].valid {
			victim, victimStamp = i, 0
		} else if ways[i].stamp < victimStamp {
			victim, victimStamp = i, ways[i].stamp
		}
	}
	t.misses++
	ways[victim] = tlbEntry{tag: tag, stamp: t.clock, valid: true}
	return false
}

// Stats returns lifetime accesses and misses.
func (t *TLB) Stats() (accesses, misses uint64) { return t.accesses, t.misses }

// Flush invalidates all entries and resets statistics.
func (t *TLB) Flush() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
	t.accesses, t.misses = 0, 0
}

// Reset restores the TLB to the exact state of a freshly-constructed one.
// Unlike Flush it also rewinds the LRU clock and clears stale stamps, so a
// reused TLB replays replacement decisions identically to a fresh one.
func (t *TLB) Reset() {
	for i := range t.entries {
		t.entries[i] = tlbEntry{}
	}
	t.accesses, t.misses = 0, 0
	t.clock = 0
}
