// Row-incremental refresh of stale products. A stale entry remembers
// the matrix it held and the operand matrices that matrix was computed
// from. Its refresh fetches the current operands (refreshed the same
// way, recursively), row-diffs each against the remembered one, and
// recomputes only what the diff reaches:
//
//   - a planned product L·R: the rows of L' that are dirty or store an
//     entry in a column that is a dirty row of R' — recomputed by the
//     ordinary Mul kernel over just those rows;
//   - a Gram product H·Hᵀ with dirty rows D: the |D|×n block
//     H'[D,:]·H'ᵀ, written into rows D and mirrored into columns D;
//   - a column slice [lo,hi) of a Gram product: rows D take the block's
//     columns [lo,hi), columns D∩[lo,hi) take the mirrored block rows.
//
// Everything else is copied from the stale matrix by sparse.PatchCtx.
//
// Both routes produce the same bits. Every kernel accumulates an output
// entry over the shared index k in ascending order, one row at a time,
// so recomputing a subset of rows reproduces those rows exactly; and an
// entry mirrored into a column is Σₖ H[d,k]·H[i,k] where the cold
// kernel computes Σₖ H[i,k]·H[d,k] — the same terms in the same order,
// each product commuted, which IEEE multiplication does exactly. (The
// cold Gram kernel already relies on this: it computes the upper
// triangle and mirrors it.) A product whose planned split moved is not
// patched, since association order does change rounding.
//
// The choice of route is cost-based and invisible: no base, or more
// than a quarter of the rows dirty, runs the full kernel.

package metapath

import (
	"context"
	"slices"
	"time"

	"hinet/internal/sparse"
)

// patchWorthwhile is the route choice: recomputing more than a quarter
// of the rows and then copying the rest costs about what the full
// kernel does.
func patchWorthwhile(dirty, rows int) bool { return dirty*4 <= rows }

// notePatch records one product refreshed by the patch route.
func (e *Engine) notePatch(rows int, start time.Time) {
	e.patches.Add(1)
	e.patchRows.Add(uint64(rows))
	e.patchNS.Add(int64(time.Since(start)))
}

// patchProduct refreshes left·right from a stale base computed at the
// same split, or returns (nil, nil) when the full kernel should run.
func (e *Engine) patchProduct(ctx context.Context, base *entry, left, right *sparse.Matrix, split int) (*sparse.Matrix, error) {
	if base == nil || base.split != split {
		return nil, nil
	}
	start := time.Now()
	dirty := union(sparse.DirtyRows(base.ops[0], left), left.RowsTouching(sparse.DirtyRows(base.ops[1], right)))
	if !patchWorthwhile(len(dirty), left.Rows()) {
		return nil, nil
	}
	block, err := left.GatherRows(dirty).MulCtx(ctx, right)
	if err != nil {
		return nil, err
	}
	m, err := base.m.PatchCtx(ctx, sparse.Patch{Rows: left.Rows(), Cols: right.Cols(), Dirty: dirty, RowBlock: block})
	if err != nil {
		return nil, err
	}
	e.notePatch(len(dirty), start)
	return m, nil
}

// patchGram refreshes columns [lo, hi) of H·Hᵀ — the whole product is
// [0, rows) — from a stale base over the same range (for a slice the
// cache key guarantees it: same lo, and the same hi or both
// open-ended), or returns (nil, nil) when the full kernel should run.
func (e *Engine) patchGram(ctx context.Context, base *entry, h *sparse.Matrix, lo, hi int) (*sparse.Matrix, error) {
	if base == nil {
		return nil, nil
	}
	start := time.Now()
	dirty := sparse.DirtyRows(base.ops[0], h)
	if !patchWorthwhile(len(dirty), h.Rows()) {
		return nil, nil
	}
	block, err := h.GatherRows(dirty).MulCtx(ctx, h.Transpose())
	if err != nil {
		return nil, err
	}
	// Rows D take the block's columns [lo, hi); the dirty rows that are
	// also owned columns — a contiguous run of the ascending dirty list —
	// take the mirrored block rows.
	a, _ := slices.BinarySearch(dirty, lo)
	b, _ := slices.BinarySearch(dirty, hi)
	owned := make([]int, b-a)
	for i, d := range dirty[a:b] {
		owned[i] = d - lo
	}
	m, err := base.m.PatchCtx(ctx, sparse.Patch{
		Rows: h.Rows(), Cols: hi - lo,
		Dirty: dirty, RowBlock: block.ColSlice(lo, hi),
		PatchCols: owned, ColBlock: block.RowSlice(a, b).Transpose(),
	})
	if err != nil {
		return nil, err
	}
	e.notePatch(len(dirty), start)
	return m, nil
}

// union merges two ascending row lists.
func union(a, b []int) []int {
	out := append(slices.Clone(a), b...)
	slices.Sort(out)
	return slices.Compact(out)
}
