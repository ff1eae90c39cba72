package sim

import "fmt"

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
	// pageShift/setShift select shift-and-mask address splitting when page
	// size / set count are powers of two; -1 falls back to division. Page
	// sizes always are; Silvermont's 48-entry TLBs give a non-pow2 12 sets.
	pageShift int
	setMask   uint64
	setShift  int
	entries   []tlbEntry
	clock     uint32
	accesses  uint64
	misses    uint64
}

// NewTLB builds a TLB. It panics on invalid configuration.
func NewTLB(cfg TLBConfig) *TLB {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.PageBytes <= 0 {
		panic(fmt.Sprintf("sim: invalid TLB config %+v", cfg))
	}
	sets := cfg.Entries / cfg.Ways
	if sets < 1 {
		sets = 1
	}
	return &TLB{
		cfg:       cfg,
		sets:      sets,
		ways:      cfg.Ways,
		pageShift: log2OrMinusOne(cfg.PageBytes),
		setMask:   uint64(sets - 1),
		setShift:  log2OrMinusOne(sets),
		entries:   make([]tlbEntry, sets*cfg.Ways),
	}
}

// Config returns the TLB's configuration.
func (t *TLB) Config() TLBConfig { return t.cfg }

// Access translates addr, reporting whether the page was resident. Missing
// pages are installed with LRU replacement.
func (t *TLB) Access(addr uint64) (hit bool) {
	t.accesses++
	var page uint64
	if t.pageShift >= 0 {
		page = addr >> uint(t.pageShift)
	} else {
		page = addr / uint64(t.cfg.PageBytes)
	}
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

// tlbState is a copy of a TLB's entries, clock and statistics, which a
// warm tape seals (tape.go).
type tlbState struct {
	entries          []tlbEntry
	clock            uint32
	accesses, misses uint64
}

func (t *TLB) save(s *tlbState) {
	s.entries = append(s.entries[:0], t.entries...)
	s.clock, s.accesses, s.misses = t.clock, t.accesses, t.misses
}

func (t *TLB) load(s *tlbState) {
	copy(t.entries, s.entries)
	t.clock, t.accesses, t.misses = s.clock, s.accesses, s.misses
}
