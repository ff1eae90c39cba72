package backend

import (
	"container/list"
	"sync"
	"sync/atomic"

	"datamime/internal/core"
	"datamime/internal/profile"
)

// CacheStats snapshots an LRU's lifetime counters and current size.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
}

// LRU is a bounded least-recently-used implementation of core.EvalCache:
// the coordinator's evaluation cache.
// Hit/miss/eviction counters are atomics so metric scrapes never contend
// with the structural lock.
type LRU struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	entries   map[string]*list.Element
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type lruEntry struct {
	key  string
	prof *profile.Profile
}

// NewLRU builds a cache holding up to capacity profiles (<= 0 selects the
// default of 4096).
func NewLRU(capacity int) *LRU {
	if capacity <= 0 {
		capacity = 4096
	}
	return &LRU{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get implements core.EvalCache.
func (c *LRU) Get(key string) (*profile.Profile, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).prof, true
}

// Put implements core.EvalCache.
func (c *LRU) Put(key string, p *profile.Profile) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).prof = p
		return
	}
	c.entries[key] = c.ll.PushFront(&lruEntry{key: key, prof: p})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry).key)
		c.evictions.Add(1)
	}
}

// Stats returns the cumulative counters and current size.
func (c *LRU) Stats() CacheStats {
	c.mu.Lock()
	n := c.ll.Len()
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   n,
	}
}

var _ core.EvalCache = (*LRU)(nil)
