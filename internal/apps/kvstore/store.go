// Package kvstore implements the memcached-like in-memory key-value store
// used by the mem-fb and mem-twtr workloads. It is a real hash table with
// chained buckets, a doubly-linked LRU list, slab allocation on the
// simulated heap, and a periodic LRU-crawler maintenance phase; every
// operation emits its memory accesses, instruction blocks, and
// data-dependent branches into a trace.Collector.
//
// Values are synthetic (this is a dataset *generator* substrate, mirroring
// the paper's use of mutilate-generated keys/values), so the store records
// per-entry value sizes and fingerprints rather than materializing hundreds
// of megabytes of random bytes; simulated addresses and sizes — the things
// that drive microarchitectural behavior — are tracked exactly.
package kvstore

import (
	"fmt"

	"datamime/internal/memsim"
	"datamime/internal/trace"
)

// A cached item's slot is two halves, split by who writes them, at one index
// of Store.keys and Store.entries. The simulated layout mirrors memcached's
// item header: a 48-byte header plus separately-allocated key and value
// storage.
//
// slotKey is the half only an insert or a removal writes. next threads the
// bucket's chain through the slots in insertion order; -1 ends it.
type slotKey struct {
	hash    uint64
	keyAddr uint64
	keySize int32
	next    int32
}

// entry is the half any request may write — a replaced value, an LRU touch —
// and so the half every server has its own copy of.
type entry struct {
	valAddr  uint64
	fprint   uint64 // value fingerprint (stands in for the bytes)
	valSize  int32
	lruPrev  int32
	lruNext  int32
	occupied bool
}

// entryHeaderBytes is the simulated size of the item header.
const entryHeaderBytes = 48

// Store is the hash-table key-value store.
type Store struct {
	heap    *memsim.Heap
	heads   []int32 // bucket -> first slot of its chain, -1 when empty
	bktAddr uint64  // simulated address of the bucket head array
	keys    []slotKey
	entries []entry
	free    []int32 // recycled slots
	lruHead int32
	lruTail int32
	count   int
	// code regions (the store's text footprint)
	code storeCode
}

// storeCode holds the store's instruction regions. Their sizes set the
// instruction footprint a request mix exercises; memcached's code is not
// cache-optimized, so the hot path spans well beyond a 32 KB L1I.
type storeCode struct {
	hash   *trace.CodeRegion
	lookup *trace.CodeRegion
	getHit *trace.CodeRegion
	getMis *trace.CodeRegion
	set    *trace.CodeRegion
	alloc  *trace.CodeRegion
	evict  *trace.CodeRegion
	lru    *trace.CodeRegion
	crawl  *trace.CodeRegion
}

// NewStore builds an empty store with the given number of hash buckets. The
// entry slab is sized for one item per bucket — what a populated server
// holds — because growing it by doubling was three quarters of a build's
// allocation.
func NewStore(buckets int, layout *trace.CodeLayout) *Store {
	if buckets <= 0 {
		panic(fmt.Sprintf("kvstore: buckets must be positive, got %d", buckets))
	}
	h := memsim.NewHeap()
	heads := make([]int32, buckets)
	for i := range heads {
		heads[i] = -1
	}
	s := &Store{
		heap:    h,
		heads:   heads,
		bktAddr: h.Alloc(8 * buckets),
		keys:    make([]slotKey, 0, buckets),
		entries: make([]entry, 0, buckets),
		lruHead: -1,
		lruTail: -1,
		code: storeCode{
			hash:   layout.Region("kv.hash", 2<<10),
			lookup: layout.Region("kv.assoc_find", 4<<10),
			getHit: layout.Region("kv.process_get", 6<<10),
			getMis: layout.Region("kv.get_miss", 2<<10),
			set:    layout.Region("kv.process_update", 9<<10),
			alloc:  layout.Region("kv.slab_alloc", 5<<10),
			evict:  layout.Region("kv.item_evict", 7<<10),
			lru:    layout.Region("kv.lru_update", 3<<10),
			crawl:  layout.Region("kv.lru_crawler", 6<<10),
		},
	}
	return s
}

// Len returns the number of resident items.
func (s *Store) Len() int { return s.count }

// LiveBytes returns the simulated resident bytes (headers + keys + values).
func (s *Store) LiveBytes() uint64 { return s.heap.LiveBytes() }

// FootprintBreakdown returns the resident key, value, and header bytes of
// live entries — the snapshot composition the compression model uses.
func (s *Store) FootprintBreakdown() (keyBytes, valBytes, headerBytes int) {
	for i := range s.entries {
		if !s.entries[i].occupied {
			continue
		}
		keyBytes += int(s.keys[i].keySize)
		valBytes += int(s.entries[i].valSize)
		headerBytes += entryHeaderBytes
	}
	return keyBytes, valBytes, headerBytes
}

// hashKey mixes a key id into a hash (keys are identified by their 64-bit
// id; the key *bytes* have the configured size and their own allocation).
func hashKey(id uint64) uint64 {
	id ^= id >> 33
	id *= 0xff51afd7ed558ccd
	id ^= id >> 29
	id *= 0xc4ceb9fe1a85ec53
	id ^= id >> 32
	return id
}

// Get looks up a key id, returning its value size and fingerprint. All
// traversal work is emitted into col.
func (s *Store) Get(col trace.Collector, id uint64) (valSize int, fprint uint64, ok bool) {
	h := hashKey(id)
	col.Exec(s.code.hash, 160)
	idx, _ := s.find(col, h)
	if idx < 0 {
		col.Exec(s.code.getMis, 420)
		return 0, 0, false
	}
	col.Exec(s.code.getHit, 1300)
	// LRU bump: unlink + relink at head (pointer stores on entry headers).
	s.lruBump(col, idx)
	// Read the value out.
	e := &s.entries[idx]
	col.Load(e.valAddr, int(e.valSize))
	return int(e.valSize), e.fprint, true
}

// Set inserts or replaces a key id with a value of the given size and
// fingerprint. If budgetBytes > 0 and the store exceeds it, LRU entries are
// evicted until it fits (memcached's memory limit).
func (s *Store) Set(col trace.Collector, id uint64, keySize, valSize int, fprint uint64, budgetBytes uint64) {
	if keySize <= 0 {
		keySize = 1
	}
	if valSize <= 0 {
		valSize = 1
	}
	h := hashKey(id)
	col.Exec(s.code.hash, 160)
	idx, tail := s.find(col, h)
	col.Exec(s.code.set, 1700)
	if idx >= 0 {
		// Replace in place: free the old value, allocate the new one.
		e := &s.entries[idx]
		col.Exec(s.code.alloc, 550)
		s.heap.Free(e.valAddr, int(e.valSize))
		e.valAddr = s.heap.Alloc(valSize)
		e.valSize = int32(valSize)
		e.fprint = fprint
		col.Store(e.valAddr, valSize)
		col.Store(s.headerAddr(idx), entryHeaderBytes)
		s.lruBump(col, idx)
		return
	}
	// Fresh insert, linked at the tail find stopped at.
	col.Exec(s.code.alloc, 950)
	ni := s.newEntry()
	keyAddr := s.heap.Alloc(keySize + entryHeaderBytes)
	valAddr := s.heap.Alloc(valSize)
	s.keys[ni] = slotKey{hash: h, keyAddr: keyAddr, keySize: int32(keySize), next: -1}
	s.entries[ni] = entry{valAddr: valAddr, fprint: fprint, valSize: int32(valSize), lruPrev: -1, lruNext: -1, occupied: true}
	col.Store(keyAddr, keySize+entryHeaderBytes)
	col.Store(valAddr, valSize)

	b := h % uint64(len(s.heads))
	if tail < 0 {
		s.heads[b] = ni
	} else {
		s.keys[tail].next = ni
	}
	col.Store(s.bktAddr+8*b, 8)
	s.lruInsertHead(col, ni)
	s.count++

	if budgetBytes > 0 {
		for s.heap.LiveBytes() > budgetBytes && s.count > 1 {
			s.evictTail(col)
		}
	}
}

// Delete removes a key id, reporting whether it was present.
func (s *Store) Delete(col trace.Collector, id uint64) bool {
	h := hashKey(id)
	col.Exec(s.code.hash, 160)
	idx, _ := s.find(col, h)
	if idx < 0 {
		return false
	}
	s.removeEntry(col, idx)
	return true
}

// find walks the hash chain for h, emitting the bucket-head load, per-entry
// header loads, and the data-dependent comparison branches. It returns the
// slot holding h, or -1 and the chain's last slot (-1 for an empty bucket) —
// where a fresh insert links, which keeps a chain in insertion order.
func (s *Store) find(col trace.Collector, h uint64) (idx, tail int32) {
	b := h % uint64(len(s.heads))
	col.Exec(s.code.lookup, 420)
	col.Load(s.bktAddr+8*b, 8)
	tail = -1
	pos := 0
	for ei := s.heads[b]; ei >= 0; ei = s.keys[ei].next {
		k := &s.keys[ei]
		col.Load(k.keyAddr, entryHeaderBytes)
		match := k.hash == h
		col.Branch(s.code.lookup.Base+uint64(pos%7), match)
		if match {
			// Full key compare: stream the key bytes.
			col.Load(k.keyAddr, int(k.keySize))
			col.Ops(int(k.keySize) / 16)
			col.Branch(s.code.lookup.Base+64, true)
			return ei, tail
		}
		tail = ei
		pos++
	}
	return -1, tail
}

// newEntry returns a fresh or recycled slot for the caller to fill.
func (s *Store) newEntry() int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		return i
	}
	s.keys = append(s.keys, slotKey{})
	s.entries = append(s.entries, entry{})
	return int32(len(s.entries) - 1)
}

// headerAddr returns the simulated address of a slot's item header, which
// coincides with its key allocation (memcached packs the header before the
// key bytes).
func (s *Store) headerAddr(idx int32) uint64 { return s.keys[idx].keyAddr }

// lruInsertHead links idx at the LRU head.
func (s *Store) lruInsertHead(col trace.Collector, idx int32) {
	col.Exec(s.code.lru, 260)
	e := &s.entries[idx]
	e.lruPrev = -1
	e.lruNext = s.lruHead
	if s.lruHead >= 0 {
		s.entries[s.lruHead].lruPrev = idx
		col.Store(s.headerAddr(s.lruHead)+16, 8)
	}
	s.lruHead = idx
	if s.lruTail < 0 {
		s.lruTail = idx
	}
	col.Store(s.headerAddr(idx)+16, 16)
}

// lruUnlink removes idx from the LRU list.
func (s *Store) lruUnlink(col trace.Collector, idx int32) {
	e := &s.entries[idx]
	if e.lruPrev >= 0 {
		s.entries[e.lruPrev].lruNext = e.lruNext
		col.Store(s.headerAddr(e.lruPrev)+16, 8)
	} else {
		s.lruHead = e.lruNext
	}
	if e.lruNext >= 0 {
		s.entries[e.lruNext].lruPrev = e.lruPrev
		col.Store(s.headerAddr(e.lruNext)+16, 8)
	} else {
		s.lruTail = e.lruPrev
	}
}

// lruBump moves idx to the LRU head (a GET/UPDATE touch).
func (s *Store) lruBump(col trace.Collector, idx int32) {
	if s.lruHead == idx {
		return
	}
	col.Exec(s.code.lru, 380)
	s.lruUnlink(col, idx)
	s.lruInsertHead(col, idx)
}

// evictTail removes the LRU tail entry (memory-limit eviction).
func (s *Store) evictTail(col trace.Collector) {
	if s.lruTail < 0 {
		return
	}
	col.Exec(s.code.evict, 1400)
	s.removeEntry(col, s.lruTail)
}

// removeEntry unlinks an entry from its chain and the LRU list and frees
// its storage.
func (s *Store) removeEntry(col trace.Collector, idx int32) {
	k := &s.keys[idx]
	// Chain unlink: walk the bucket to find the position (pointer chase).
	b := k.hash % uint64(len(s.heads))
	prev := int32(-1)
	for ei := s.heads[b]; ei >= 0; ei = s.keys[ei].next {
		col.Load(s.headerAddr(ei), 8)
		if ei == idx {
			if prev < 0 {
				s.heads[b] = k.next
			} else {
				s.keys[prev].next = k.next
			}
			col.Store(s.bktAddr+8*b, 8)
			break
		}
		prev = ei
	}
	s.lruUnlink(col, idx)
	e := &s.entries[idx]
	s.heap.Free(k.keyAddr, int(k.keySize)+entryHeaderBytes)
	s.heap.Free(e.valAddr, int(e.valSize))
	e.occupied = false
	s.free = append(s.free, idx)
	s.count--
}

// WarmScan touches every live entry's header, key, and value once, in
// LRU order from most to least recent — the state of a long-running
// server's caches (hot data last, hence most recently touched).
func (s *Store) WarmScan(col trace.Collector) {
	// Walk from tail (cold) to head (hot) so the hottest entries are the
	// most recently installed lines.
	idx := s.lruTail
	for idx >= 0 {
		k, e := &s.keys[idx], &s.entries[idx]
		col.Load(k.keyAddr, int(k.keySize)+entryHeaderBytes)
		col.Load(e.valAddr, int(e.valSize))
		idx = e.lruPrev
	}
}

// Crawl runs one LRU-crawler maintenance pass over up to n entries from the
// LRU tail — the periodic background work that gives memcached its
// time-varying activity phases.
func (s *Store) Crawl(col trace.Collector, n int) {
	col.Exec(s.code.crawl, 2600)
	idx := s.lruTail
	for i := 0; i < n && idx >= 0; i++ {
		e := &s.entries[idx]
		col.Load(s.headerAddr(idx), entryHeaderBytes)
		col.Branch(s.code.crawl.Base, e.valSize > 1024)
		idx = e.lruPrev
	}
}
