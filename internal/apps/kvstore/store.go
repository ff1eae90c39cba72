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

// entry is one cached item. The simulated layout mirrors memcached's item
// header: a 48-byte header plus separately-allocated key and value storage.
type entry struct {
	hash     uint64
	keyAddr  uint64
	valAddr  uint64
	keySize  int
	valSize  int
	fprint   uint64 // value fingerprint (stands in for the bytes)
	lruPrev  int32
	lruNext  int32
	bucket   int32
	occupied bool
}

// entryHeaderBytes is the simulated size of the item header.
const entryHeaderBytes = 48

// Store is the hash-table key-value store.
type Store struct {
	heap    *memsim.Heap
	buckets [][]int32 // bucket -> entry indices (chain order)
	bktAddr uint64    // simulated address of the bucket head array
	entries []entry
	free    []int32 // recycled entry slots

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
	s := &Store{
		heap:    h,
		buckets: make([][]int32, buckets),
		bktAddr: h.Alloc(8 * buckets),
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
		e := &s.entries[i]
		if !e.occupied {
			continue
		}
		keyBytes += e.keySize
		valBytes += e.valSize
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
	idx, keyLoads := s.find(col, h)
	if idx < 0 {
		col.Exec(s.code.getMis, 420)
		_ = keyLoads
		return 0, 0, false
	}
	e := &s.entries[idx]
	col.Exec(s.code.getHit, 1300)
	// LRU bump: unlink + relink at head (pointer stores on entry headers).
	s.lruBump(col, idx)
	// Read the value out.
	col.Load(e.valAddr, e.valSize)
	return e.valSize, e.fprint, true
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
	idx, _ := s.find(col, h)
	col.Exec(s.code.set, 1700)
	if idx >= 0 {
		// Replace in place: free the old value, allocate the new one.
		e := &s.entries[idx]
		col.Exec(s.code.alloc, 550)
		s.heap.Free(e.valAddr, e.valSize)
		e.valAddr = s.heap.Alloc(valSize)
		e.valSize = valSize
		e.fprint = fprint
		col.Store(e.valAddr, valSize)
		col.Store(entryAddrOf(e), entryHeaderBytes)
		s.lruBump(col, idx)
		return
	}
	// Fresh insert.
	col.Exec(s.code.alloc, 950)
	ni := s.newEntry()
	e := &s.entries[ni]
	e.hash = h
	e.keySize = keySize
	e.valSize = valSize
	e.fprint = fprint
	e.keyAddr = s.heap.Alloc(keySize + entryHeaderBytes)
	e.valAddr = s.heap.Alloc(valSize)
	e.occupied = true
	col.Store(e.keyAddr, keySize+entryHeaderBytes)
	col.Store(e.valAddr, valSize)

	b := int32(h % uint64(len(s.buckets)))
	e.bucket = b
	s.buckets[b] = append(s.buckets[b], ni)
	col.Store(s.bktAddr+8*uint64(b), 8)
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
// header loads, and the data-dependent comparison branches.
func (s *Store) find(col trace.Collector, h uint64) (idx int32, keyLoads int) {
	b := h % uint64(len(s.buckets))
	col.Exec(s.code.lookup, 420)
	col.Load(s.bktAddr+8*b, 8)
	chain := s.buckets[b]
	for pos, ei := range chain {
		e := &s.entries[ei]
		col.Load(entryAddrOf(e), entryHeaderBytes)
		match := e.hash == h
		col.Branch(s.code.lookup.Base+uint64(pos%7), match)
		if match {
			// Full key compare: stream the key bytes.
			col.Load(e.keyAddr, e.keySize)
			col.Ops(e.keySize / 16)
			col.Branch(s.code.lookup.Base+64, true)
			keyLoads++
			return ei, keyLoads
		}
	}
	return -1, keyLoads
}

// entryAddrOf returns the simulated address of an entry's header, which
// coincides with its key allocation (memcached packs the header before the
// key bytes).
func entryAddrOf(e *entry) uint64 { return e.keyAddr }

// newEntry returns a fresh or recycled entry slot.
func (s *Store) newEntry() int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.entries[i] = entry{lruPrev: -1, lruNext: -1}
		return i
	}
	s.entries = append(s.entries, entry{lruPrev: -1, lruNext: -1})
	return int32(len(s.entries) - 1)
}

// lruInsertHead links idx at the LRU head.
func (s *Store) lruInsertHead(col trace.Collector, idx int32) {
	col.Exec(s.code.lru, 260)
	e := &s.entries[idx]
	e.lruPrev = -1
	e.lruNext = s.lruHead
	if s.lruHead >= 0 {
		head := &s.entries[s.lruHead]
		head.lruPrev = idx
		col.Store(entryAddrOf(head)+16, 8)
	}
	s.lruHead = idx
	if s.lruTail < 0 {
		s.lruTail = idx
	}
	col.Store(entryAddrOf(e)+16, 16)
}

// lruUnlink removes idx from the LRU list.
func (s *Store) lruUnlink(col trace.Collector, idx int32) {
	e := &s.entries[idx]
	if e.lruPrev >= 0 {
		p := &s.entries[e.lruPrev]
		p.lruNext = e.lruNext
		col.Store(entryAddrOf(p)+16, 8)
	} else {
		s.lruHead = e.lruNext
	}
	if e.lruNext >= 0 {
		n := &s.entries[e.lruNext]
		n.lruPrev = e.lruPrev
		col.Store(entryAddrOf(n)+16, 8)
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
	e := &s.entries[idx]
	// Chain unlink: walk the bucket to find the position (pointer chase).
	chain := s.buckets[e.bucket]
	for pos, ei := range chain {
		col.Load(entryAddrOf(&s.entries[ei]), 8)
		if ei == idx {
			s.buckets[e.bucket] = append(chain[:pos], chain[pos+1:]...)
			col.Store(s.bktAddr+8*uint64(e.bucket), 8)
			break
		}
	}
	s.lruUnlink(col, idx)
	s.heap.Free(e.keyAddr, e.keySize+entryHeaderBytes)
	s.heap.Free(e.valAddr, e.valSize)
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
		e := &s.entries[idx]
		col.Load(entryAddrOf(e), e.keySize+entryHeaderBytes)
		col.Load(e.valAddr, e.valSize)
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
		col.Load(entryAddrOf(e), entryHeaderBytes)
		col.Branch(s.code.crawl.Base, e.valSize > 1024)
		idx = e.lruPrev
	}
}
