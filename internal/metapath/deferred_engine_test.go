package metapath

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hinet/internal/sparse"
)

// wideAuthors is how many authors wideSource has.
const wideAuthors = 1200

// wideSource is staleSource with enough authors that a few papers' edits
// leave A-P-V-P-A inside the overlay budget: a refresh for a reader of
// views defers.
func wideSource() *hookSource {
	rng := rand.New(rand.NewSource(13))
	s := &mapSource{
		types:  []string{"A", "P", "V"},
		counts: map[string]int{"A": wideAuthors, "P": 1800, "V": 5},
		rels:   make(map[[2]string]*sparse.Matrix),
	}
	s.addRel(rng, "A", "P", 2000)
	s.addRel(rng, "P", "V", 1800)
	return &hookSource{mapSource: s}
}

// viewOf asks for the whole default product as a view.
func viewOf(t *testing.T, e *Engine) *sparse.View {
	t.Helper()
	v, _, err := e.CommuteViewCtx(context.Background(), staleAPVPA, 0, wideAuthors)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// readsAs asserts that v reads row by row as want.
func readsAs(t *testing.T, label string, v *sparse.View, want *sparse.Matrix) {
	t.Helper()
	if v.Rows() != want.Rows() || v.NNZ() != want.NNZ() {
		t.Fatalf("%s: view has %d rows and %d entries, want %d and %d", label, v.Rows(), v.NNZ(), want.Rows(), want.NNZ())
	}
	for r := 0; r < want.Rows(); r++ {
		row := v.Row(r)
		cols, vals := row.AppendTo(nil, nil)
		wc, wv := want.RowEntries(r)
		if !slices.Equal(cols, wc) || !slices.Equal(vals, wv) {
			t.Fatalf("%s: row %d reads (%v, %v), want (%v, %v)", label, r, cols, vals, wc, wv)
		}
	}
}

// TestDeferredEntryServesBothAskers: a Gram product refreshed for a
// reader of views keeps its base and answers through an overlay, which
// every later view asker shares; the whole product and a column slice
// are refreshed from one block; the first caller that needs one matrix
// folds the overlay in — once, however many ask at once — and from then
// on view askers get that matrix too, while a view handed out before
// still reads the same.
func TestDeferredEntryServesBothAskers(t *testing.T) {
	s := wideSource()
	e := New(s)
	ctx := context.Background()
	if viewOf(t, e).Plain() == nil {
		t.Fatal("a cold build must be one matrix")
	}
	if _, _, err := e.CommuteViewCtx(ctx, staleAPVPA, 300, 700); err != nil {
		t.Fatal(err)
	}
	base := e.entries[join(staleAPVPA)].m
	editPV(e, s, 1, 7)
	before := e.Stats()

	v := viewOf(t, e)
	st := e.Stats()
	if v.Plain() != nil || len(v.Dirty()) == 0 {
		t.Fatal("the refresh applied its patch: nothing was deferred")
	}
	if ent := e.entries[join(staleAPVPA)]; ent.m != base || ent.view != v {
		t.Fatal("a deferred entry must keep the matrix it was refreshed from as its base")
	}
	// A-P-V (planned product) and the Gram were patched; nothing compacted.
	if st.Patches-before.Patches != 2 || st.Compactions != 0 || st.OverlayRows != len(v.Dirty()) {
		t.Fatalf("after a deferred refresh: %+v (from %+v), overlay of %d rows", st, before, len(v.Dirty()))
	}
	if again := viewOf(t, e); again != v {
		t.Fatal("a second view asker must share the deferred entry")
	}
	cold := coldCommute(t, s, staleAPVPA)
	readsAs(t, "deferred", v, cold)

	// The slice is refreshed from the block the whole product computed.
	block := e.block.Load()
	cols, _, err := e.CommuteViewCtx(ctx, staleAPVPA, 300, 700)
	if err != nil {
		t.Fatal(err)
	}
	if e.block.Load() != block || cols.Plain() != nil {
		t.Fatal("the column slice recomputed the dirty block (or was not deferred)")
	}
	readsAs(t, "deferred slice", cols, cold.ColSlice(300, 700))

	// Callers that need one matrix: one fold, shared.
	got := make([]*sparse.Matrix, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := e.CommuteCtx(ctx, staleAPVPA)
			if err != nil {
				t.Error(err)
			}
			got[i] = m
		}(i)
	}
	wg.Wait()
	for i, m := range got {
		if m != got[0] {
			t.Fatalf("caller %d got its own matrix: the fold was not shared", i)
		}
	}
	if c := e.Stats().Compactions; c != 1 {
		t.Fatalf("%d compactions, want the one fold", c)
	}
	sameBits(t, "folded", got[0], cold)
	if later := viewOf(t, e); later.Plain() != got[0] {
		t.Fatal("after the fold a view asker must be handed the matrix")
	}
	if e.Stats().OverlayRows == 0 {
		t.Fatal("the slice's overlay is still pending and must still be counted")
	}
	readsAs(t, "the view handed out before the fold", v, cold)
}

// TestDeferredEntriesTravelAndCompact: a deferred entry comes along
// through CloneFor; each further edit replaces its overlay over the same
// base until the overlay outgrows its budget, and that refresh's result
// is a new base with no overlay. Every generation reads as cold.
func TestDeferredEntriesTravelAndCompact(t *testing.T) {
	s := wideSource()
	e := New(s)
	viewOf(t, e)
	base := e.entries[join(staleAPVPA)].m
	editPV(e, s, 1, 3)
	first := viewOf(t, e)

	e = e.CloneFor(s, 1)
	if v := viewOf(t, e); v != first || e.Stats().Misses != 0 {
		t.Fatal("CloneFor must carry a deferred entry, base and overlay")
	}
	dirty := len(first.Dirty())
	for edit := 0; ; edit++ {
		if edit == 60 {
			t.Fatal("60 edits never outgrew the overlay budget")
		}
		editPV(e, s, int64(2+edit), 11+7*edit)
		v := viewOf(t, e)
		readsAs(t, "after an edit", v, coldCommute(t, s, staleAPVPA))
		ent := e.entries[join(staleAPVPA)]
		if e.Stats().Compactions > 0 {
			if v.Plain() == nil || ent.m == base {
				t.Fatal("a compacting refresh must yield a new base with no overlay")
			}
			if edit == 0 {
				t.Fatal("the first edit already compacted: nothing was replaced")
			}
			return
		}
		if ent.m != base || len(v.Dirty()) < dirty {
			t.Fatalf("edit %d: the overlay must be replaced over the same base and keep its rows (%d, was %d)", edit, len(v.Dirty()), dirty)
		}
		dirty = len(v.Dirty())
		e = e.CloneFor(s, int64(2+edit))
	}
}

// TestFailedFoldKeepsDeferredEntry: a fold whose caller gives up leaves
// the deferred entry where it was, still answering view askers.
func TestFailedFoldKeepsDeferredEntry(t *testing.T) {
	s := wideSource()
	e := New(s)
	viewOf(t, e)
	editPV(e, s, 1, 5)
	v := viewOf(t, e)
	if v.Plain() != nil {
		t.Fatal("the refresh applied its patch: there is no overlay to fold")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if m, err := e.CommuteCtx(ctx, staleAPVPA); !errors.Is(err, context.Canceled) || m != nil {
		t.Fatalf("cancelled fold = (%v, %v), want (nil, context.Canceled)", m, err)
	}
	if again := viewOf(t, e); again != v {
		t.Fatal("a failed fold must put the deferred entry back")
	}
	m, err := e.CommuteCtx(context.Background(), staleAPVPA)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "fold after a failed one", m, coldCommute(t, s, staleAPVPA))
}

// editAP adds an author to the n-th paper and invalidates what reads the
// A-P relation — the shape of an ingest, which dirties the co-author
// graph and the similarity index at once.
func editAP(e *Engine, s *hookSource, epoch int64, n int) {
	key := [2]string{"A", "P"}
	s.rels[key] = s.rels[key].ApplyDelta([]sparse.Coord{{Row: (7 * n) % wideAuthors, Col: n, Val: 1}})
	e.Invalidate(epoch, func(path []string) bool { return pathHasPair(path, "A", "P") })
}

// TestGramBlockMemoHoldsBothProducts: a write refreshes two Gram
// products side by side — A-P-A over A-P, and shard 0's slice of
// A-P-V-P-A over A-P-V — and then the sibling shards' slices one after
// the other. Whichever of the first two stores its block last, the
// siblings cut theirs from the one A-P-V block: one block per product
// per write.
func TestGramBlockMemoHoldsBothProducts(t *testing.T) {
	ctx := context.Background()
	bounds := [][2]int{{0, 400}, {400, 800}, {800, wideAuthors}}
	slice := func(t *testing.T, e *Engine, shard int) *sparse.View {
		t.Helper()
		v, _, err := e.CommuteViewCtx(ctx, staleAPVPA, bounds[shard][0], bounds[shard][1])
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	apa := func(t *testing.T, e *Engine) {
		t.Helper()
		if _, err := e.CommuteCtx(ctx, staleAPA); err != nil {
			t.Error(err)
		}
	}
	for _, order := range []string{"index first", "co-author graph first", "side by side"} {
		t.Run(order, func(t *testing.T) {
			s := wideSource()
			e := New(s)
			apa(t, e)
			for shard := range bounds {
				slice(t, e, shard)
			}
			editAP(e, s, 1, 3)
			switch order {
			case "index first":
				slice(t, e, 0)
				apa(t, e)
			case "co-author graph first":
				apa(t, e)
				slice(t, e, 0)
			default:
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					apa(t, e)
				}()
				slice(t, e, 0)
				wg.Wait()
			}
			held := e.block.Load()
			if held == nil || held[0] == nil || held[1] == nil || held[0].h == held[1].h {
				t.Fatalf("after both refreshes the memo holds %+v, want one block per operand", held)
			}
			cold := coldCommute(t, s, staleAPVPA)
			for shard := 1; shard < len(bounds); shard++ {
				v := slice(t, e, shard)
				if e.block.Load() != held {
					t.Fatalf("shard %d recomputed a dirty block its sibling had computed", shard)
				}
				readsAs(t, "sibling slice", v, cold.ColSlice(bounds[shard][0], bounds[shard][1]))
			}
			sameBits(t, "co-author graph", mustCommute(t, e, staleAPA), coldCommute(t, s, staleAPA))
		})
	}
}

func mustCommute(t *testing.T, e *Engine, path []string) *sparse.Matrix {
	t.Helper()
	m, err := e.CommuteCtx(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
