package backend

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
// the coordinator's shared evaluation cache and each worker's local tier.
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

// CacheClient speaks the shared-cache protocol to a coordinator:
// GET/PUT /v1/cache/{key} with profile JSON bodies. A 404 is a miss;
// anything else unexpected is an error the TieredCache absorbs (a flaky
// shared tier degrades to local-only, never fails an evaluation).
type CacheClient struct {
	base string
	hc   *http.Client
}

// NewCacheClient builds a client for the coordinator at baseURL.
func NewCacheClient(baseURL string) *CacheClient {
	return &CacheClient{
		base: strings.TrimRight(baseURL, "/"),
		hc:   &http.Client{Timeout: 15 * time.Second},
	}
}

// Get fetches the profile stored under key, reporting found/not-found.
func (c *CacheClient) Get(ctx context.Context, key string) (*profile.Profile, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+PathCache+key, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer drain(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("backend: cache get %s: HTTP %d", key, resp.StatusCode)
	}
	var p profile.Profile
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return nil, false, fmt.Errorf("backend: cache get %s: decoding: %w", key, err)
	}
	return &p, true, nil
}

// Put publishes a freshly measured profile under key.
func (c *CacheClient) Put(ctx context.Context, key string, p *profile.Profile) error {
	body, err := json.Marshal(p)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.base+PathCache+key, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("backend: cache put %s: HTTP %d", key, resp.StatusCode)
	}
	return nil
}

// TieredStats snapshots a TieredCache's counters.
type TieredStats struct {
	LocalHits    uint64
	RemoteHits   uint64
	Misses       uint64
	RemoteErrors uint64
}

// TieredCache is the two-tier content-addressed lookup a worker runs: a
// local tier (typically an LRU) consulted first, then the coordinator's
// shared cache endpoint. Remote hits are pulled into the local tier; fresh
// measurements are published to both, so a fleet deduplicates simulation
// work globally. The remote tier is strictly best-effort: every error is
// counted and swallowed, degrading to local-only behavior. Entries are
// content-addressed and the simulator is deterministic, so concurrent
// fill races are benign — every writer writes the same bytes.
type TieredCache struct {
	local  core.EvalCache
	remote *CacheClient

	localHits  atomic.Uint64
	remoteHits atomic.Uint64
	misses     atomic.Uint64
	remoteErrs atomic.Uint64
}

// NewTieredCache layers local over the shared tier behind remote (nil
// remote means local-only).
func NewTieredCache(local core.EvalCache, remote *CacheClient) *TieredCache {
	if local == nil {
		local = NewLRU(0)
	}
	return &TieredCache{local: local, remote: remote}
}

// Cache tier names, as GetTier reports them (a worker's cache.probe span
// encodes them as its cache_tier attribute).
const (
	TierWorker = "worker"
	TierShared = "shared"
)

// Get implements core.EvalCache: local tier, then shared tier (filling
// local on a remote hit).
func (t *TieredCache) Get(key string) (*profile.Profile, bool) {
	p, _, ok := t.GetTier(key)
	return p, ok
}

// GetTier is Get plus which tier served the hit: TierWorker (the local
// tier), TierShared (the coordinator's shared endpoint), or "" on a miss.
func (t *TieredCache) GetTier(key string) (*profile.Profile, string, bool) {
	if p, ok := t.local.Get(key); ok {
		t.localHits.Add(1)
		return p, TierWorker, true
	}
	if t.remote != nil {
		p, ok, err := t.remote.Get(context.Background(), key)
		if err != nil {
			t.remoteErrs.Add(1)
		} else if ok {
			t.remoteHits.Add(1)
			t.local.Put(key, p)
			return p, TierShared, true
		}
	}
	t.misses.Add(1)
	return nil, "", false
}

// Put implements core.EvalCache: fill the local tier and publish to the
// shared tier.
func (t *TieredCache) Put(key string, p *profile.Profile) {
	t.local.Put(key, p)
	if t.remote != nil {
		if err := t.remote.Put(context.Background(), key, p); err != nil {
			t.remoteErrs.Add(1)
		}
	}
}

// Stats returns the tier counters.
func (t *TieredCache) Stats() TieredStats {
	return TieredStats{
		LocalHits:    t.localHits.Load(),
		RemoteHits:   t.remoteHits.Load(),
		Misses:       t.misses.Load(),
		RemoteErrors: t.remoteErrs.Load(),
	}
}

var _ core.EvalCache = (*TieredCache)(nil)
