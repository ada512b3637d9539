// A matrix published as base + overlay. PatchCtx copies the whole base
// to move the few entries a patch changes; a View holds the base and the
// patch as they are and applies the patch to one row at a time, when
// that row is read. Every row it hands out is the row PatchCtx would
// have stored — the same columns in the same ascending order, the same
// value bits: the rule that merges a row is the one PatchCtx fills its
// rows by (splice, patch.go), and Materialize is PatchCtx itself.

package sparse

import (
	"context"
	"slices"
)

// View is an immutable matrix read through a patch that has not been
// applied: base with p applied. The zero-overlay view of a matrix is the
// matrix (Matrix.View); Patched derives a view with an overlay from it.
// Safe for concurrent readers.
type View struct {
	base *Matrix
	p    *patcher // nil: the view is base
	nnz  int
	// perCol[c] is how many entries base stores in column c. Counted once
	// per base, by the first Patched over it, and shared by every later
	// view of the same base: it is what makes a view's NNZ exact without
	// a pass over the base per patch.
	perCol []int32
}

// View returns m as a view with no overlay.
func (m *Matrix) View() *View { return &View{base: m, nnz: len(m.vals)} }

// Patched returns the view of v's base through p, which replaces v's
// own overlay (a patch describes how the result differs from the base,
// not from a previous view). The base is not copied, and the cost is
// that of counting what p removes and adds: one look at each patched
// column's count and one pass over the base rows it replaces — plus,
// the first time for a base, one pass over all its columns.
func (v *View) Patched(p Patch) *View {
	m := v.base
	out := &View{base: m, p: newPatcher(m, p), perCol: v.perCol}
	if out.perCol == nil {
		out.perCol = make([]int32, m.cols)
		for _, c := range m.colIdx {
			out.perCol[c]++
		}
	}
	// Rows Dirty are RowBlock's; in every other row the columns
	// PatchCols are ColBlock's.
	n := len(m.vals)
	if p.RowBlock != nil {
		n += len(p.RowBlock.vals)
	}
	cols := out.p.cols
	if cols != nil {
		n += len(cols.vals)
		for _, c := range p.PatchCols {
			if c < m.cols {
				n -= int(out.perCol[c])
			}
		}
	}
	for _, d := range p.Dirty {
		idx, _ := m.rowOrNone(d)
		n -= len(idx)
		if cols != nil {
			// The row's patched columns were dropped above with their
			// columns, and its ColBlock entries are not read.
			n -= cols.RowNNZ(d)
			for _, c := range idx {
				if out.p.patched(c) {
					n++
				}
			}
		}
	}
	out.nnz = n
	return out
}

// Plain returns the view as a matrix when it has no overlay — it is its
// base — and nil when it has one.
func (v *View) Plain() *Matrix {
	if v.p != nil {
		return nil
	}
	return v.base
}

// Dirty returns, ascending, the rows the overlay replaces — the rows in
// which the view differs from its base by more than the mirrored
// columns; nil for a view that is its base. Read-only.
func (v *View) Dirty() []int {
	if v.p == nil {
		return nil
	}
	return v.p.Dirty
}

// Materialize applies the overlay: the matrix the view reads as, as one
// CSR (PatchCtx; a view with no overlay is its base already).
func (v *View) Materialize(ctx context.Context) (*Matrix, error) {
	if v.p == nil {
		return v.base, nil
	}
	return v.base.patch(ctx, v.p)
}

// Rows returns the number of rows.
func (v *View) Rows() int {
	if v.p == nil {
		return v.base.rows
	}
	return v.p.Rows
}

// Cols returns the number of columns.
func (v *View) Cols() int {
	if v.p == nil {
		return v.base.cols
	}
	return v.p.Cols
}

// NNZ returns the number of stored entries, exactly, in O(1).
func (v *View) NNZ() int { return v.nnz }

// Row is one row of a View, unassembled: what a reader needs to visit
// its entries in ascending column order without anything being copied.
// Cols and Vals are a stored row — the base's, or the one the overlay
// replaces it with. When the overlay reaches into the row without
// replacing it (Spliced), OverCols and OverVals are the entries it
// holds for the row's patched columns, ascending, to be merged in, and
// the entries of Cols in patched columns (Superseded) are to be left
// out: each has been rewritten by an Over entry or dropped. All four
// are read-only views into the base's and the overlay's arrays.
type Row struct {
	Cols     []int32
	Vals     []float64
	OverCols []int32
	OverVals []float64
	p        *patcher // nil unless Spliced
}

// Spliced reports whether the row is the merge of Cols and OverCols
// rather than Cols alone.
func (r *Row) Spliced() bool { return r.p != nil }

// Superseded reports whether the entry of a Spliced row's Cols at
// column c is to be left out.
func (r *Row) Superseded(c int32) bool { return r.p.patched(c) }

// AppendTo appends the row's entries, assembled, to cols and vals.
func (r *Row) AppendTo(cols []int32, vals []float64) ([]int32, []float64) {
	if r.p == nil {
		return append(cols, r.Cols...), append(vals, r.Vals...)
	}
	at, n := len(cols), len(r.Cols)+len(r.OverCols)
	cols, vals = slices.Grow(cols, n)[:at+n], slices.Grow(vals, n)[:at+n]
	n = r.p.splice(r.Cols, r.Vals, r.OverCols, r.OverVals, cols[at:], vals[at:])
	return cols[:at+n], vals[:at+n]
}

// Row returns row r.
func (v *View) Row(r int) Row {
	p := v.p
	if p == nil {
		idx, vals := v.base.RowEntries(r)
		return Row{Cols: idx, Vals: vals}
	}
	if d, ok := p.dirtyAt(r); ok {
		idx, vals := p.RowBlock.RowEntries(d)
		return Row{Cols: idx, Vals: vals}
	}
	idx, vals := v.base.rowOrNone(r)
	touched, cidx, cvals := p.reach(r, idx)
	if !touched {
		return Row{Cols: idx, Vals: vals}
	}
	return Row{Cols: idx, Vals: vals, OverCols: cidx, OverVals: cvals, p: p}
}

// RowNNZ returns the number of stored entries in row r, exactly.
func (v *View) RowNNZ(r int) int {
	row := v.Row(r)
	if row.p == nil {
		return len(row.Cols)
	}
	n, _ := row.p.spliced(row.Cols, row.OverCols)
	return n
}

// RowCap returns an upper bound on RowNNZ(r) without walking the row:
// what a caller sizing a buffer for it needs.
func (v *View) RowCap(r int) int {
	row := v.Row(r)
	return len(row.Cols) + len(row.OverCols)
}

// At returns the value at (r, c); zero when not stored.
func (v *View) At(r, c int) float64 {
	p := v.p
	if p == nil {
		return v.base.At(r, c)
	}
	if d, ok := p.dirtyAt(r); ok {
		return p.RowBlock.At(d, c)
	}
	if c >= 0 && c < p.Cols && p.cols != nil && p.patched(int32(c)) {
		return p.cols.At(r, c)
	}
	if r >= v.base.rows {
		return 0
	}
	return v.base.At(r, c)
}
