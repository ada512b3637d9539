// Row-incremental refresh of stale products. A stale entry remembers
// the matrix it held and the operand matrices that matrix was computed
// from. Its refresh fetches the current operands (refreshed the same
// way, recursively), row-diffs each against the remembered one
// (sparse.DirtyRows, which reads a relation one merge newer off the
// merge's own record), and recomputes only what the diff reaches:
//
//   - a planned product L·R: the rows of L' that are dirty or store an
//     entry in a column that is a dirty row of R' — recomputed by the
//     ordinary MulCtx kernel over just those rows;
//   - a Gram product H·Hᵀ with dirty rows D: the |D|×n block
//     H'[D,:]·H'ᵀ, written into rows D and mirrored into columns D.
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

// patchGram refreshes H·Hᵀ from the stale base it replaces, or returns
// (nil, nil) when the full kernel should run.
func (e *Engine) patchGram(ctx context.Context, base *entry, h *sparse.Matrix) (*sparse.Matrix, error) {
	if base == nil {
		return nil, nil
	}
	start := time.Now()
	dirty := sparse.DirtyRows(base.ops[0], h)
	if !patchWorthwhile(len(dirty), h.Rows()) {
		return nil, nil
	}
	// hᵀ through the cache, under the reversed half's own entry: a reader
	// of the factor (FactorCtx) asks for the same matrix next.
	ht, err := e.matrix(ctx, reverseOf(halfOf(base.path)), false)
	if err != nil {
		return nil, err
	}
	block, err := h.GatherRows(dirty).MulCtx(ctx, ht)
	if err != nil {
		return nil, err
	}
	m, err := base.m.PatchCtx(ctx, sparse.Patch{Rows: h.Rows(), Cols: h.Rows(),
		Dirty: dirty, RowBlock: block, PatchCols: dirty, ColBlock: block.Transpose()})
	if err != nil {
		return nil, err
	}
	e.notePatch(len(dirty), start)
	return m, nil
}

// union merges two ascending row lists.
func union(a, b []int) []int {
	if len(a) == 0 {
		return b
	}
	out := append(slices.Clone(a), b...)
	slices.Sort(out)
	return slices.Compact(out)
}
