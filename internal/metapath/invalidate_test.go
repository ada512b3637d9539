package metapath

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"hinet/internal/sparse"
)

// invalSource builds a small A-P-V schema with deterministic matrices.
func invalSource() *mapSource {
	rng := rand.New(rand.NewSource(3))
	s := &mapSource{
		types:  []string{"A", "P", "V"},
		counts: map[string]int{"A": 6, "P": 10, "V": 3},
		rels:   make(map[[2]string]*sparse.Matrix),
	}
	s.addRel(rng, "A", "P", 20)
	s.addRel(rng, "P", "V", 10)
	return s
}

func pathHasPair(path []string, a, b string) bool {
	for i := 0; i+1 < len(path); i++ {
		if (path[i] == a && path[i+1] == b) || (path[i] == b && path[i+1] == a) {
			return true
		}
	}
	return false
}

func TestInvalidateDropsOnlyMatchingPaths(t *testing.T) {
	src := invalSource()
	e := New(src)
	apa, err := e.CommuteCtx(context.Background(), []string{"A", "P", "A"})
	if err != nil {
		t.Fatal(err)
	}
	pvp, err := e.CommuteCtx(context.Background(), []string{"P", "V", "P"})
	if err != nil {
		t.Fatal(err)
	}

	// Invalidate everything that reads the P-V relation; A-P products
	// must survive the epoch move.
	e.Invalidate(5, func(path []string) bool { return pathHasPair(path, "P", "V") })
	if got := e.Stats().Epoch; got != 5 {
		t.Fatalf("epoch = %d, want 5", got)
	}

	hits0 := e.Stats().Hits
	again, _ := e.CommuteCtx(context.Background(), []string{"A", "P", "A"})
	if again != apa {
		t.Fatal("A-P-A should still be served from cache after a P-V invalidation")
	}
	if e.Stats().Hits == hits0 {
		t.Fatal("expected a cache hit for the surviving entry")
	}

	miss0 := e.Stats().Misses
	pvp2, _ := e.CommuteCtx(context.Background(), []string{"P", "V", "P"})
	if pvp2 == pvp {
		t.Fatal("P-V-P must be rematerialized after invalidation")
	}
	if e.Stats().Misses == miss0 {
		t.Fatal("expected a cache miss for the dropped entry")
	}

	// SyncEpoch with the post-invalidation epoch must not wipe the
	// survivors (this is the contract the HIN layer relies on).
	e.SyncEpoch(5)
	if again2, _ := e.CommuteCtx(context.Background(), []string{"A", "P", "A"}); again2 != apa {
		t.Fatal("SyncEpoch at the current epoch must keep surviving entries")
	}
}

func TestInvalidateByType(t *testing.T) {
	src := invalSource()
	e := New(src)
	if _, err := e.CommuteCtx(context.Background(), []string{"A", "P", "V", "P", "A"}); err != nil {
		t.Fatal(err)
	}
	entries0 := e.Stats().Entries
	if entries0 == 0 {
		t.Fatal("expected cached sub-paths")
	}
	// Dropping every path that mentions V keeps A-P (and A-P-A if
	// cached) but removes the APVPA chain pieces.
	e.Invalidate(2, func(path []string) bool { return slices.Contains(path, "V") })
	st := e.Stats()
	if st.Entries >= entries0 {
		t.Fatalf("entries should shrink: %d -> %d", entries0, st.Entries)
	}
	if st.Entries == 0 {
		t.Fatal("V-free sub-paths (A-P) should survive")
	}
}

func TestCloneForCarriesCompletedEntries(t *testing.T) {
	src := invalSource()
	e := New(src)
	apa, err := e.CommuteCtx(context.Background(), []string{"A", "P", "A"})
	if err != nil {
		t.Fatal(err)
	}

	clone := e.CloneFor(src, 9)
	if got := clone.Stats().Epoch; got != 9 {
		t.Fatalf("clone epoch = %d, want 9", got)
	}
	if clone.Stats().Entries != e.Stats().Entries {
		t.Fatalf("clone entries = %d, want %d", clone.Stats().Entries, e.Stats().Entries)
	}
	// The clone serves the shared immutable matrix without recomputing.
	got, err := clone.CommuteCtx(context.Background(), []string{"A", "P", "A"})
	if err != nil {
		t.Fatal(err)
	}
	if got != apa {
		t.Fatal("clone should share the parent's materialized matrix")
	}
	if clone.Stats().Hits == 0 || clone.Stats().Products != 0 {
		t.Fatalf("clone stats: %+v (want pure cache hits)", clone.Stats())
	}
	// Invalidating the clone must not disturb the parent.
	clone.Invalidate(10, func([]string) bool { return true })
	if again, _ := e.CommuteCtx(context.Background(), []string{"A", "P", "A"}); again != apa {
		t.Fatal("parent cache must be unaffected by clone invalidation")
	}
}
