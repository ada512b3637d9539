package main

import "testing"

// Report.CacheHit is -1 when the run had no cache lookups (`-cache -1`);
// the summary line must not render that as a percentage.
func TestCacheHitText(t *testing.T) {
	for _, c := range []struct {
		rate float64
		want string
	}{{-1, "n/a"}, {0, "0%"}, {0.956, "96%"}, {1, "100%"}} {
		if got := cacheHitText(c.rate); got != c.want {
			t.Errorf("cacheHitText(%v) = %q, want %q", c.rate, got, c.want)
		}
	}
}
