package sparse

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// readsAs asserts that v reads, row by row, as want does: dimensions,
// exact NNZ, and for every row the assembled entries (columns, value
// bits), RowNNZ, a RowCap that bounds it, and At on every column.
func readsAs(t *testing.T, label string, v *View, want *Matrix) {
	t.Helper()
	if v.Rows() != want.rows || v.Cols() != want.cols {
		t.Fatalf("%s: view is %dx%d, want %dx%d", label, v.Rows(), v.Cols(), want.rows, want.cols)
	}
	if v.NNZ() != want.NNZ() {
		t.Fatalf("%s: NNZ = %d, want %d", label, v.NNZ(), want.NNZ())
	}
	var cols []int32
	var vals []float64
	for r := 0; r < want.rows; r++ {
		row := v.Row(r)
		cols, vals = row.AppendTo(cols[:0], vals[:0])
		wc, wv := want.RowEntries(r)
		if !slices.Equal(cols, wc) || !sameBits(vals, wv) {
			t.Fatalf("%s: row %d reads (%v, %v), want (%v, %v)", label, r, cols, vals, wc, wv)
		}
		if n := v.RowNNZ(r); n != len(wc) {
			t.Fatalf("%s: RowNNZ(%d) = %d, want %d", label, r, n, len(wc))
		}
		if n := v.RowCap(r); n < len(wc) {
			t.Fatalf("%s: RowCap(%d) = %d is below the row's %d entries", label, r, n, len(wc))
		}
		// The unassembled form is what AppendTo merged: the stored
		// entries not superseded, and the overlay's, all ascending.
		if row.Spliced() {
			kept := 0
			for _, c := range row.Cols {
				if !row.Superseded(c) {
					kept++
				}
			}
			if kept+len(row.OverCols) != len(wc) || !slices.IsSorted(row.OverCols) {
				t.Fatalf("%s: row %d keeps %d stored entries and merges %v, want %d in all", label, r, kept, row.OverCols, len(wc))
			}
		} else if len(row.OverCols) != 0 {
			t.Fatalf("%s: row %d is not spliced but carries overlay entries", label, r)
		}
		for c := -1; c <= want.cols; c++ {
			if got, w := v.At(r, c), want.At(r, c); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("%s: At(%d,%d) = %v, want %v", label, r, c, got, w)
			}
		}
	}
}

// TestViewReadsAsPatched: a view through a patch reads, bit for bit, as
// the matrix PatchCtx builds from the same patch — which the rest of the
// suite holds to the cold kernels — for a Gram product, a column slice
// of one and a planned product (rows only), with and without growth,
// value-only and structural edits; Materialize is that matrix; and a
// second patch over the same base replaces the first.
func TestViewReadsAsPatched(t *testing.T) {
	ctx := context.Background()
	check := func(label string, base *Matrix, p Patch) *View {
		t.Helper()
		want, err := base.PatchCtx(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		v := base.View().Patched(p)
		if v.Plain() != nil {
			t.Fatalf("%s: a patched view is not plain", label)
		}
		if !slices.Equal(v.Dirty(), p.Dirty) {
			t.Fatalf("%s: Dirty = %v, want %v", label, v.Dirty(), p.Dirty)
		}
		readsAs(t, label, v, want)
		got, err := v.Materialize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		identical(t, label+" materialized", got, want)
		return v
	}
	gramPatch := func(h, cur *Matrix, lo, hi int) Patch {
		d := DirtyRows(h, cur)
		block := cur.GatherRows(d).Mul(cur.Transpose())
		a, _ := slices.BinarySearch(d, lo)
		b, _ := slices.BinarySearch(d, hi)
		owned := make([]int, 0, b-a)
		for _, r := range d[a:b] {
			owned = append(owned, r-lo)
		}
		return Patch{Rows: cur.rows, Cols: hi - lo, Dirty: d, RowBlock: block.ColSlice(lo, hi),
			PatchCols: owned, ColBlock: block.RowSlice(a, b).Transpose()}
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows, mid := 20+rng.Intn(40), 4+rng.Intn(12)
		grow := int(seed % 3)
		h := randomCSR(rng, rows, mid, 3)
		if seed%4 == 0 {
			h = randomMatrix(rng, rows, mid, 0.3, true)
		}
		cur := mutate(rng, h, 1+rng.Intn(4), grow, grow/2)
		if seed%7 == 0 { // values only: the pattern of every row survives
			r := rng.Intn(rows)
			for h.RowNNZ(r) == 0 {
				r = rng.Intn(rows)
			}
			cur = h.ApplyDelta([]Coord{{Row: r, Col: int(h.colIdx[h.rowPtr[r]]), Val: 0.5}})
		}

		base := h.Gram()
		v := check("gram", base, gramPatch(h, cur, 0, cur.rows))

		// The next patch is again a difference from the base: the view
		// it yields shares the base and replaces the overlay.
		later := mutate(rng, cur, 1+rng.Intn(3), 0, 0)
		p := gramPatch(h, later, 0, later.rows)
		want, err := base.PatchCtx(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		readsAs(t, "gram, second patch", v.Patched(p), want)
		identical(t, "second patch vs cold", want, later.Gram())

		lo := rng.Intn(rows)
		hi, curHi := lo+rng.Intn(rows-lo+1), 0
		if seed%5 == 0 {
			hi = rows
		}
		if curHi = hi; hi == rows {
			curHi = cur.rows
		}
		check("cols", h.Mul(h.RowSlice(lo, hi).Transpose()), gramPatch(h, cur, lo, curHi))

		right := randomCSR(rng, mid, 5+rng.Intn(20), 2)
		curRight := mutate(rng, right, rng.Intn(3), cur.cols-mid, grow)
		d := union(DirtyRows(h, cur), cur.RowsTouching(DirtyRows(right, curRight)))
		check("product", h.Mul(right), Patch{Rows: cur.rows, Cols: curRight.cols, Dirty: d, RowBlock: cur.GatherRows(d).Mul(curRight)})
	}
}

// TestViewWithoutOverlay: the plain view of a matrix is that matrix.
func TestViewWithoutOverlay(t *testing.T) {
	m := randomCSR(rand.New(rand.NewSource(3)), 30, 12, 3)
	v := m.View()
	if v.Plain() != m || v.Dirty() != nil {
		t.Fatal("a view with no overlay must hand back its matrix")
	}
	readsAs(t, "plain", v, m)
	if got, err := v.Materialize(context.Background()); err != nil || got != m {
		t.Fatalf("Materialize = (%v, %v), want the matrix itself", got, err)
	}
	// A patch that changes nothing is still an overlay, and reads the same.
	clean := v.Patched(Patch{Rows: m.rows, Cols: m.cols})
	if clean.Plain() != nil {
		t.Fatal("a patched view is not plain, whatever the patch holds")
	}
	readsAs(t, "clean patch", clean, m)
}
