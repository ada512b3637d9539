package metapath_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hinet/internal/hin"
	"hinet/internal/ingest"
	"hinet/internal/sparse"
)

// The differential suite for deferred products: the patched_test.go
// world, widened until a one-paper batch stays inside the overlay
// budget, driven through the real write path, and after every batch the
// default path's column ranges read through CommuteViewCtx — as a write
// publishes them, the overlay never applied by the reader — compared
// row by row with one oracle, Materialize (= PatchCtx, which
// patched_test.go holds to the cold kernels), and, belt and braces,
// with the cold matrix itself.

// wideWorld is newWorld with enough authors (and few enough per paper)
// that a small batch dirties well under 1/64 of the rows: the share of
// the base an overlay may reach before its write compacts it.
func wideWorld(seed int64) *world {
	w := &world{net: hin.NewNetwork(), rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 260; i++ {
		w.net.AddObject(tA, fmt.Sprintf("a%d", i))
	}
	for i := 0; i < 5; i++ {
		w.net.AddObject(tV, fmt.Sprintf("v%d", i))
	}
	for i := 0; i < 8; i++ {
		w.net.AddObject(tT, fmt.Sprintf("t%d", i))
	}
	for i := 0; i < 330; i++ {
		p := w.net.AddObject(tP, fmt.Sprintf("p%d", i))
		w.net.AddLink(tP, p, tV, w.rng.Intn(5), 1)
		for j := 0; j < 1+w.rng.Intn(2); j++ {
			w.net.AddLink(tP, p, tA, w.rng.Intn(260), 1)
		}
		w.net.AddLink(tP, p, tT, w.rng.Intn(8), 1)
	}
	return w
}

// sameRows reports how v, read row by row, differs from want — shape,
// exact NNZ, each row's RowNNZ, column ids and value bits — or "".
func sameRows(v *sparse.View, want *sparse.Matrix) string {
	if v.Rows() != want.Rows() || v.Cols() != want.Cols() {
		return fmt.Sprintf("%dx%d, want %dx%d", v.Rows(), v.Cols(), want.Rows(), want.Cols())
	}
	if v.NNZ() != want.NNZ() {
		return fmt.Sprintf("NNZ %d, want %d", v.NNZ(), want.NNZ())
	}
	var cols []int32
	var vals []float64
	for r := 0; r < want.Rows(); r++ {
		row := v.Row(r)
		cols, vals = row.AppendTo(cols[:0], vals[:0])
		wc, wv := want.RowEntries(r)
		if v.RowNNZ(r) != len(wc) {
			return fmt.Sprintf("row %d: RowNNZ %d, want %d", r, v.RowNNZ(r), len(wc))
		}
		if !slices.Equal(cols, wc) {
			return fmt.Sprintf("row %d: columns %v, want %v", r, cols, wc)
		}
		for i, x := range wv {
			if math.Float64bits(vals[i]) != math.Float64bits(x) {
				return fmt.Sprintf("row %d column %d: %v, want %v", r, wc[i], vals[i], x)
			}
		}
	}
	return ""
}

// checkViews compares the whole range and the six column ranges of the
// default path, as views from the live engine, with their own
// materialization and with a cold engine's product (cut by ColSlice,
// which patched_test.go shows is what a cold range build yields); it
// returns the widest overlay it read through, in rows. The live engine
// is only ever asked for views, so its entries stay deferred from batch
// to batch.
func (w *world) checkViews(t *testing.T, label string) (overlay int) {
	t.Helper()
	ctx := context.Background()
	live := w.net.PathEngine()
	cold := w.net.Clone().PathEngine()
	cold.Reset()
	whole, err := cold.Commute(pathAPVPA)
	if err != nil {
		t.Fatal(err)
	}
	wantDiag := whole.Diagonal()
	dim := w.net.Count(tA)
	for _, r := range append([][2]int{{0, dim}}, w.ranges(t)...) {
		v, diag, err := live.CommuteViewCtx(ctx, pathAPVPA, r[0], r[1])
		if err != nil {
			t.Fatalf("%s: view %v: %v", label, r, err)
		}
		overlay = max(overlay, len(v.Dirty()))
		folded, err := v.Materialize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameRows(v, folded); d != "" {
			t.Fatalf("%s: columns %v read through the view differ from its materialization: %s", label, r, d)
		}
		if d := sameRows(v, whole.ColSlice(r[0], r[1])); d != "" {
			t.Fatalf("%s: columns %v read through the view differ from cold: %s", label, r, d)
		}
		if len(diag) != len(wantDiag) {
			t.Fatalf("%s: columns %v: diagonal of %d, want %d", label, r, len(diag), len(wantDiag))
		}
		for i, x := range wantDiag {
			if math.Float64bits(diag[i]) != math.Float64bits(x) {
				t.Fatalf("%s: columns %v diagonal[%d] = %v, want %v", label, r, i, diag[i], x)
			}
		}
	}
	return overlay
}

// deferredRoutes is what a script's refreshes did after boot.
type deferredRoutes struct {
	overlay     int    // the widest overlay read through, in rows
	compactions uint64 // overlays applied: past the budget
	cold        uint64 // Gram refreshes that ran the full kernel: past a quarter of the rows
}

// playDeferred runs a script over the wide world, its batches queried
// through views only. Bytes 0–11 are world.step's (10 ends a batch that
// is not queried); 12 is a queried burst well past the quarter-rows
// fallback, 13–15 one queried paper. With clone set every batch is
// applied to a copy-on-write clone, the way a serving generation is, so
// the deferred entries travel through CloneFor.
func playDeferred(t *testing.T, seed int64, script []byte, clone bool) deferredRoutes {
	t.Helper()
	w := wideWorld(seed)
	var out deferredRoutes
	out.overlay = w.checkViews(t, "boot")
	var batch []ingest.Delta
	apply := func(i int, query bool) {
		if clone {
			w.net = w.net.Clone()
		}
		if _, err := ingest.Apply(w.net, batch, ingest.Options{}); err != nil {
			t.Fatalf("seed %d step %d: %v", seed, i, err)
		}
		if batch = nil; !query {
			return
		}
		before := w.net.PathEngine().Stats()
		out.overlay = max(out.overlay, w.checkViews(t, fmt.Sprintf("seed %d step %d", seed, i)))
		st := w.net.PathEngine().Stats()
		out.compactions += st.Compactions - before.Compactions
		// Seven Gram-shaped refreshes a batch (the product and six
		// slices), of which the patched ones count again in Patches.
		out.cold += (st.Grams + st.Products - before.Grams - before.Products) - (st.Patches - before.Patches)
	}
	for i, b := range script {
		query := true
		switch op := b % 16; {
		case op == 12:
			for j := 0; j < 60; j++ {
				batch = append(batch, w.paper()...)
			}
		case op > 12:
			batch = append(batch, w.paper()...)
		default:
			if op >= 6 && op <= 8 { // picks a stored edge or object: apply what is open first
				apply(i, false)
			}
			ds, end, q := w.step(b)
			if batch, query = append(batch, ds...), q; !end {
				continue
			}
		}
		apply(i, query)
	}
	apply(len(script), true)
	return out
}

// TestDeferredRowsMatchCold is the seeded run: one fixed script that
// names every case — paper arrivals, a growing endpoint type,
// fractional weights, removed edge / author / paper / venue, batches of
// several steps, a burst past the budget (byte 9) and one past the
// quarter-rows fallback (byte 12) — and random ones, serial and forced
// parallel, applied in place and through clones.
func TestDeferredRowsMatchCold(t *testing.T) {
	fixed := []byte{13, 14, 15, 3, 11, 13, 4, 11, 5, 6, 13, 7, 13, 8, 13, 20, 13, 32, 13,
		0, 10, 1, 10, 2, 11, 13, 9, 11, 13, 14, 12, 13, 14, 15, 13}
	for _, clone := range []bool{false, true} {
		r := playDeferred(t, 1, fixed, clone)
		if r.overlay == 0 || r.compactions == 0 || r.cold == 0 {
			t.Fatalf("clone=%v: the fixed script must read through an overlay, compact one and rebuild one cold: %+v", clone, r)
		}
	}
	var overlay int
	for seed := int64(2); seed < 14; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 12+rng.Intn(12))
		rng.Read(script)
		if seed%2 == 0 {
			overlay = max(overlay, playDeferred(t, seed, script, seed%4 == 0).overlay)
			continue
		}
		oldW, oldT := sparse.Parallelism(0), sparse.SerialThreshold(0)
		sparse.Parallelism(4)
		sparse.SerialThreshold(1)
		overlay = max(overlay, playDeferred(t, seed, script, seed%4 == 1).overlay)
		sparse.Parallelism(oldW)
		sparse.SerialThreshold(oldT)
	}
	if overlay == 0 {
		t.Fatal("no random script read through an overlay")
	}
}

// FuzzDeferredRows is the same suite with the script, the seed the world
// is drawn from and the write discipline chosen by the fuzzer.
func FuzzDeferredRows(f *testing.F) {
	f.Add(int64(1), []byte{13, 14, 15, 3, 11, 13, 4, 11, 5, 6, 13}, false)
	f.Add(int64(2), []byte{13, 7, 13, 8, 13, 20, 13, 32, 13}, true)
	f.Add(int64(3), []byte{13, 9, 13, 14, 12, 13, 14}, true)
	f.Add(int64(4), []byte{0, 1, 11, 13, 0, 10, 1, 10, 2, 11}, false)
	f.Add(int64(5), []byte{}, false)
	f.Fuzz(func(t *testing.T, seed int64, script []byte, clone bool) {
		if len(script) > 16 {
			script = script[:16]
		}
		playDeferred(t, seed, script, clone)
	})
}
