// Sharded LRU result cache. Hot queries are answered straight from
// memory without touching the batching queue or the index. Keys embed
// the snapshot epoch (see Server.topK), so a snapshot swap leaves stale
// entries unreachable; they age out of the LRU lists naturally instead
// of requiring a flush. Sharding by key hash keeps lock contention flat
// under concurrent load — each shard has its own mutex and its own
// recency list. Entries hold the kernel's answer, never rendered bytes:
// a body is several times its pairs, and the cache is sized in entries.

package serve

import (
	"container/list"
	"sync"

	"hinet/internal/pathsim"
)

// cacheKey identifies one top-k answer: the snapshot epoch it was
// computed at, the resolved meta-path, the queried object and k. It is
// comparable, so a lookup builds no string.
type cacheKey struct {
	epoch int64
	path  string
	x, k  int
}

// Cache is a sharded LRU map from top-k queries to their answers. A
// nil *Cache is valid and behaves as always-miss (caching disabled).
type Cache struct {
	shards []cacheShard
}

type cacheShard struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	items  map[cacheKey]*list.Element
	hits   uint64
	misses uint64
}

type cacheEntry struct {
	key cacheKey
	val []pathsim.Pair
}

// NewCache returns a cache holding up to capacity entries across the
// given number of shards (clamped to ≥ 1). capacity ≤ 0 returns nil,
// the disabled cache.
func NewCache(capacity, shards int) *Cache {
	if capacity <= 0 {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	perShard := (capacity + shards - 1) / shards
	c := &Cache{shards: make([]cacheShard, shards)}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].ll = list.New()
		// Not presized: a slot holds the whole 40-byte key, and maps
		// presized for full capacity would park ~0.4 MiB in an empty
		// default cache. The maps grow with occupancy instead.
		c.shards[i].items = make(map[cacheKey]*list.Element)
	}
	return c
}

// shard picks the key's shard by FNV-1a over the path's bytes, then
// one round per numeric field.
func (c *Cache) shard(key cacheKey) *cacheShard {
	const prime = 16777619
	h := uint32(2166136261)
	for i := 0; i < len(key.path); i++ {
		h = (h ^ uint32(key.path[i])) * prime
	}
	for _, f := range [...]uint64{uint64(key.epoch), uint64(key.x), uint64(key.k)} {
		h = (h ^ uint32(f) ^ uint32(f>>32)) * prime
	}
	return &c.shards[h%uint32(len(c.shards))]
}

// Get returns the cached value and whether it was present, promoting
// the entry to most-recently-used on a hit.
func (c *Cache) Get(key cacheKey) ([]pathsim.Pair, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.hits++
		s.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).val, true
	}
	s.misses++
	return nil, false
}

// Put inserts or refreshes an entry, evicting the shard's
// least-recently-used entry when the shard is full.
func (c *Cache) Put(key cacheKey, val []pathsim.Pair) {
	if c == nil {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		s.ll.MoveToFront(el)
		return
	}
	if s.ll.Len() >= s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry).key)
	}
	s.items[key] = s.ll.PushFront(&cacheEntry{key: key, val: val})
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// CacheStats aggregates hit/miss counters across shards.
type CacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
	Shards  int    `json:"shards"`
}

// Stats returns the aggregate counters. The zero value is returned for
// the disabled (nil) cache.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := CacheStats{Shards: len(c.shards)}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Entries += s.ll.Len()
		s.mu.Unlock()
	}
	return st
}
