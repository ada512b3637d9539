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
// Everything else is copied from the stale matrix by sparse.PatchCtx —
// or, for a Gram product refreshed for a reader of views, left where it
// is: the patch is published unapplied, as the overlay of a sparse.View
// over the stale matrix, until it outgrows its budget (patchGram).
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

// overlayWorthwhile is the other route choice, for a Gram refresh whose
// caller reads views: keep the patch as an overlay of pending entries
// over a base of nnz, or apply it now. The model: an overlay refreshed
// from the same base grows by a roughly constant δ entries per write; a
// deferred write costs c per pending entry (the block product, its
// slices and their transposes all scale with the block); applying costs
// a per base entry (PatchCtx copies the base). Compacting every N writes
// then costs c·δ·N/2 + a·nnz/N a write, least at N* = √(2·a·nnz/(c·δ))
// and flat around it. Measured on the 4 000-author corpus (nnz 2.32 M,
// 3-paper ingests, GOMAXPROCS 2): δ ≈ 9.4 k, c ≈ 55 ns, a ≈ 9.5 ns in
// situ (22 ms a compaction), so N* ≈ 9 writes — pending ≈ nnz/27 — and
// anything from 6 to 14 writes costs within a tenth of the least. The
// budget sits on the small side of that flat bottom because the two
// other things an overlay costs only grow with it: every pending entry
// is resident beside the base (at nnz/32 two overlaid indexes add at
// most 2.4 % to the live heap of the default corpus, whose benchmark
// bound is 5 %), and a row read through it is merged as it is scored (a
// k=100 top-k over the fullest overlay reads 9–12 % slower than over
// one matrix; CHANGES.md, PR 19, has the runs). A smaller index
// dirties a larger share of itself per write and so compacts more
// often — every other write at 800 authors — which is the model's
// answer too: its N* shrinks with √nnz.
func overlayWorthwhile(pending, nnz int) bool { return pending*overlayShare <= nnz }

const overlayShare = 32

// dirtyBlock returns h[dirty,:]·hᵀ, the block a Gram refresh writes.
// It is kept, under the operand and the row list it was computed for
// (not the operand the rows were diffed against, which it would pin for
// a generation): the whole product and each shard's column slice are
// refreshed one after the other, arrive at the same rows, and cut what
// they own from the one block — and the one transpose of h behind it.
// The memo holds a block per operand for the last two operands (see
// gramBlocks), so a refresh of another product running beside this one
// does not push it out.
func (e *Engine) dirtyBlock(ctx context.Context, h *sparse.Matrix, dirty []int) (*sparse.Matrix, error) {
	if last := e.block.Load(); last != nil {
		for _, b := range last {
			if b != nil && b.h == h && slices.Equal(b.dirty, dirty) {
				return b.block, nil
			}
		}
	}
	block, err := h.GatherRows(dirty).MulCtx(ctx, h.Transpose())
	if err != nil {
		return nil, err
	}
	fresh := &gramBlock{h: h, dirty: dirty, block: block}
	for {
		last := e.block.Load()
		next := &gramBlocks{fresh}
		if last != nil {
			// The operand's own previous block is replaced; otherwise the
			// older of the two goes.
			next[1] = last[0]
			if last[0].h == h {
				next[1] = last[1]
			}
		}
		if e.block.CompareAndSwap(last, next) {
			return block, nil
		}
	}
}

// patchGram refreshes columns [lo, hi) of H·Hᵀ — the whole product is
// [0, rows) — from base, the entry being replaced over the same range
// (for a slice the cache key guarantees it: same lo, and the same hi or
// both open-ended), or returns (nil, nil) when the full kernel should
// run. The patch is always the difference from base.m: a deferred base
// already lists the rows that changed between base.m and its own
// operand, and the row diff from that operand to h adds the rest, so
// the rows recomputed are a superset of those that differ from what
// base.m was built from — and recomputing a row that did not change
// reproduces it. With deferred set and the overlay within budget the
// patch is not applied: ent becomes a deferred entry over base.m and
// that is what is returned. Otherwise PatchCtx applies it — the one
// place an overlay is ever folded into its base.
func (e *Engine) patchGram(ctx context.Context, ent, base *entry, h *sparse.Matrix, lo, hi int, deferred bool) (*sparse.Matrix, error) {
	if base == nil {
		return nil, nil
	}
	start := time.Now()
	over := base.view
	if over == nil {
		over = base.m.View()
	}
	dirty := union(over.Dirty(), sparse.DirtyRows(base.ops[0], h))
	if !patchWorthwhile(len(dirty), h.Rows()) {
		return nil, nil
	}
	block, err := e.dirtyBlock(ctx, h, dirty)
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
	rows := block // the whole product takes the block as it is
	if lo != 0 || hi != block.Cols() {
		rows = block.ColSlice(lo, hi)
	}
	p := sparse.Patch{Rows: h.Rows(), Cols: hi - lo, Dirty: dirty, RowBlock: rows,
		PatchCols: owned, ColBlock: block.RowSlice(a, b).Transpose()}
	if deferred && overlayWorthwhile(p.RowBlock.NNZ()+p.ColBlock.NNZ(), base.m.NNZ()) {
		ent.view = over.Patched(p)
		e.notePatch(len(dirty), start)
		return base.m, nil
	}
	m, err := base.m.PatchCtx(ctx, p)
	if err != nil {
		return nil, err
	}
	if deferred || base.view != nil {
		e.compacted.Add(1)
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
