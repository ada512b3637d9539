package serve

import (
	"testing"

	"hinet/internal/pathsim"
)

// key and val build distinguishable cache keys and answers.
func key(x int) cacheKey        { return cacheKey{epoch: 1, path: "a-p-a", x: x, k: 5} }
func val(id int) []pathsim.Pair { return []pathsim.Pair{{ID: id, Score: 1}} }

func TestCachePutGetEvict(t *testing.T) {
	c := NewCache(2, 1)
	c.Put(key(1), val(1))
	c.Put(key(2), val(2))
	if v, ok := c.Get(key(1)); !ok || v[0].ID != 1 {
		t.Fatal("key 1 missing")
	}
	c.Put(key(3), val(3)) // key 2 is now LRU and must go
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("key 2 survived eviction")
	}
	for _, x := range []int{1, 3} {
		if _, ok := c.Get(key(x)); !ok {
			t.Fatalf("key %d evicted wrongly", x)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCacheUpdateExisting(t *testing.T) {
	c := NewCache(4, 2)
	c.Put(key(1), val(1))
	c.Put(key(1), val(2))
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	if v, _ := c.Get(key(1)); v[0].ID != 2 {
		t.Fatalf("stale value %v", v)
	}
}

// TestCacheKeyFields: every field of the key separates entries — an
// answer is never served across epochs, paths, objects or k.
func TestCacheKeyFields(t *testing.T) {
	c := NewCache(16, 4)
	c.Put(key(1), val(1))
	for _, k := range []cacheKey{
		{epoch: 2, path: "a-p-a", x: 1, k: 5},
		{epoch: 1, path: "a-p-v-p-a", x: 1, k: 5},
		{epoch: 1, path: "a-p-a", x: 2, k: 5},
		{epoch: 1, path: "a-p-a", x: 1, k: 6},
	} {
		if _, ok := c.Get(k); ok {
			t.Fatalf("%+v hit the entry of %+v", k, key(1))
		}
	}
}

func TestCacheDisabledNil(t *testing.T) {
	c := NewCache(0, 8)
	if c != nil {
		t.Fatal("capacity 0 should disable the cache")
	}
	c.Put(key(1), val(1)) // all nil-receiver calls must be safe no-ops
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("nil cache hit")
	}
	if c.Len() != 0 || c.Stats() != (CacheStats{}) {
		t.Fatal("nil cache has state")
	}
}

func TestCacheShardedStats(t *testing.T) {
	c := NewCache(64, 8)
	for i := 0; i < 100; i++ {
		c.Put(key(i), val(i))
	}
	if n := c.Len(); n == 0 || n > 64 {
		t.Fatalf("Len = %d, want (0, 64]", n)
	}
	hits, misses := 0, 0
	for i := 0; i < 100; i++ {
		if _, ok := c.Get(key(i)); ok {
			hits++
		} else {
			misses++
		}
	}
	st := c.Stats()
	if st.Hits != uint64(hits) || st.Misses != uint64(misses) {
		t.Fatalf("stats %+v, counted %d/%d", st, hits, misses)
	}
	if st.Shards != 8 || st.Entries != c.Len() {
		t.Fatalf("stats %+v", st)
	}
	if hits == 0 {
		t.Fatal("nothing was retained")
	}
}
