package metapath

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"hinet/internal/sparse"
)

// hookSource runs a callback on every Relation call — the one point of
// a refresh a test can reach into.
type hookSource struct {
	*mapSource
	mu   sync.Mutex
	hook func(a, b string)
}

func (s *hookSource) Relation(a, b string) *sparse.Matrix {
	s.mu.Lock()
	h := s.hook
	s.mu.Unlock()
	if h != nil {
		h(a, b)
	}
	return s.mapSource.Relation(a, b)
}

func (s *hookSource) setHook(h func(a, b string)) {
	s.mu.Lock()
	s.hook = h
	s.mu.Unlock()
}

var (
	staleAPA   = []string{"A", "P", "A"}
	staleAPVPA = []string{"A", "P", "V", "P", "A"}
)

// staleSource is an A-P-V schema large enough that one paper's edit
// stays under the quarter-rows fallback.
func staleSource() *hookSource {
	rng := rand.New(rand.NewSource(11))
	s := &mapSource{
		types:  []string{"A", "P", "V"},
		counts: map[string]int{"A": 40, "P": 60, "V": 5},
		rels:   make(map[[2]string]*sparse.Matrix),
	}
	s.addRel(rng, "A", "P", 90)
	s.addRel(rng, "P", "V", 60)
	return &hookSource{mapSource: s}
}

// editPV adds venue weight to the n-th paper that has authors and
// invalidates what reads the P-V relation, the way
// hin.Network.ApplyEdgeDeltas does.
func editPV(e *Engine, s *hookSource, epoch int64, n int) {
	pa := s.mapSource.Relation("P", "A")
	p := 0
	for ; pa.RowNNZ(p) == 0 || n > 0; p++ {
		if pa.RowNNZ(p) > 0 {
			n--
		}
	}
	key := [2]string{"P", "V"}
	s.rels[key] = s.rels[key].ApplyDelta([]sparse.Coord{{Row: p, Col: p % 5, Val: 0.5}})
	e.Invalidate(epoch, func(path []string) bool { return pathHasPair(path, "P", "V") })
}

// coldCommute is the oracle: a fresh engine over the same source.
func coldCommute(t *testing.T, s Source, path []string) *sparse.Matrix {
	t.Helper()
	m, err := New(s).CommuteCtx(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sameBits(t *testing.T, label string, got, want *sparse.Matrix) {
	t.Helper()
	sameMatrix(t, label, got, want) // shape, nnz, every value by ==
	if len(sparse.DirtyRows(want, got)) != 0 {
		t.Fatalf("%s: rows %v differ in pattern or value bits", label, sparse.DirtyRows(want, got))
	}
}

// TestStaleRefreshSingleflight: many goroutines asking for one stale
// path share one refresh — one patch per stale product in its chain —
// while askers of an untouched path keep hitting the cache.
func TestStaleRefreshSingleflight(t *testing.T) {
	s := staleSource()
	e := New(s)
	if _, err := e.CommuteCtx(context.Background(), staleAPVPA); err != nil {
		t.Fatal(err)
	}
	apa, err := e.CommuteCtx(context.Background(), staleAPA)
	if err != nil {
		t.Fatal(err)
	}
	editPV(e, s, 1, 7)
	before := e.Stats()

	var wg sync.WaitGroup
	got := make([]*sparse.Matrix, 12)
	clean := make([]*sparse.Matrix, 6)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := e.CommuteCtx(context.Background(), staleAPVPA)
			if err != nil {
				t.Error(err)
			}
			got[i] = m
		}(i)
	}
	for i := range clean {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clean[i], _ = e.CommuteCtx(context.Background(), staleAPA)
		}(i)
	}
	wg.Wait()

	for i, m := range got {
		if m != got[0] {
			t.Fatalf("caller %d got its own matrix: the refresh was not shared", i)
		}
	}
	for _, m := range clean {
		if m != apa {
			t.Fatal("the untouched A-P-A must still be served from cache")
		}
	}
	st := e.Stats()
	// A-P-V (planned product) and A-P-V-P-A (Gram) each patched once; the
	// P-V leaf is refetched, not patched.
	if d := st.Patches - before.Patches; d != 2 {
		t.Fatalf("%d patches ran, want exactly 2", d)
	}
	if st.Grams-before.Grams != 1 || st.Products-before.Products != 1 {
		t.Fatalf("a patched product must still count once: %+v -> %+v", before, st)
	}
	if st.PatchedRows == 0 || st.PatchTime <= 0 {
		t.Fatalf("patch counters not kept: %+v", st)
	}
	sameBits(t, "patched A-P-V-P-A", got[0], coldCommute(t, s, staleAPVPA))
}

// TestFailedRefreshKeepsBase: a refresh that is cancelled or panics
// half-way returns the failure and leaves the stale base where it was,
// so the next live caller still patches instead of rebuilding cold.
func TestFailedRefreshKeepsBase(t *testing.T) {
	s := staleSource()
	e := New(s)
	if _, err := e.CommuteCtx(context.Background(), staleAPVPA); err != nil {
		t.Fatal(err)
	}

	// Cancelled: the context dies while the refresh is fetching the P-V
	// leaf, so the product patch that follows sees a dead context.
	editPV(e, s, 1, 3)
	ctx, cancel := context.WithCancel(context.Background())
	s.setHook(func(a, b string) { cancel() })
	if m, err := e.CommuteCtx(ctx, staleAPVPA); !errors.Is(err, context.Canceled) || m != nil {
		t.Fatalf("cancelled refresh = (%v, %v), want (nil, context.Canceled)", m, err)
	}
	s.setHook(nil)
	before := e.Stats()
	m, err := e.CommuteCtx(context.Background(), staleAPVPA)
	if err != nil {
		t.Fatal(err)
	}
	if d := e.Stats().Patches - before.Patches; d != 2 {
		t.Fatalf("after a cancelled refresh the retry ran %d patches, want 2 (bases kept)", d)
	}
	sameBits(t, "after cancel", m, coldCommute(t, s, staleAPVPA))

	// Panicking: the source blows up under the refresh.
	editPV(e, s, 2, 9)
	s.setHook(func(a, b string) { panic("source down") })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the source's panic must reach the caller")
			}
		}()
		e.CommuteCtx(context.Background(), staleAPVPA)
	}()
	s.setHook(nil)
	before = e.Stats()
	if m, err = e.CommuteCtx(context.Background(), staleAPVPA); err != nil {
		t.Fatal(err)
	}
	if d := e.Stats().Patches - before.Patches; d != 2 {
		t.Fatalf("after a panicking refresh the retry ran %d patches, want 2 (bases kept)", d)
	}
	sameBits(t, "after panic", m, coldCommute(t, s, staleAPVPA))
}

// TestStaleBasesCountTowardBound: fresh entries plus stale bases never
// exceed maxEntries; a new path evicts a stale base to get in, and with
// only fresh entries left is answered without being retained.
func TestStaleBasesCountTowardBound(t *testing.T) {
	s := staleSource()
	e := New(s)
	held := func() int {
		e.mu.Lock()
		defer e.mu.Unlock()
		return len(e.entries)
	}
	// Walks over the A-P-V schema give hundreds of cheap distinct keys:
	// from P the i-th walk steps to A or V as the bits of i say.
	ctx := context.Background()
	slice := func(i int) {
		path := []string{"A"}
		for b := i + 1<<10; b > 1; b >>= 1 {
			path = append(path, "P", "AV"[b&1:b&1+1])
		}
		if _, err := e.CommuteCtx(ctx, path); err != nil {
			t.Fatal(err)
		}
		if n := held(); n > maxEntries {
			t.Fatalf("engine holds %d entries, bound is %d", n, maxEntries)
		}
	}
	for i := 0; i < 300; i++ {
		slice(i)
	}
	if n := held(); n != maxEntries {
		t.Fatalf("engine holds %d entries after 300 distinct keys, want the bound %d", n, maxEntries)
	}
	editPV(e, s, 1, 5)
	apa, err := e.CommuteCtx(context.Background(), staleAPA) // untouched by the edit: stays fresh
	if err != nil {
		t.Fatal(err)
	}
	fresh := e.Stats().Entries
	if fresh == 0 || fresh >= maxEntries/2 {
		t.Fatalf("%d fresh entries after invalidating every slice", fresh)
	}
	// New keys displace stale bases one for one.
	for i := 300; i < 700; i++ {
		slice(i)
	}
	if again, _ := e.CommuteCtx(context.Background(), staleAPA); again != apa {
		t.Fatal("a fresh entry was evicted to make room; only stale bases may be")
	}
	if got := e.Stats().Entries; got != held() || got != maxEntries {
		t.Fatalf("%d fresh of %d held: every stale base should have been displaced", got, held())
	}
	// Full of fresh entries: still answered, not retained.
	m, err := e.CommuteCtx(context.Background(), []string{"V", "P", "V"})
	if err != nil || m == nil {
		t.Fatalf("Commute on a full cache = (%v, %v)", m, err)
	}
	if n := held(); n != maxEntries {
		t.Fatalf("engine holds %d entries, bound is %d", n, maxEntries)
	}
}
