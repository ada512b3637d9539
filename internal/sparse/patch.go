// Row-incremental patching: the kernels under the meta-path engine's
// stale-entry refresh (internal/metapath). When a few rows of an
// operand change, the product it feeds changes in a few rows (and, for
// a symmetric Gram product, the mirrored columns); everything else is
// carried over from the previous product. DirtyRows finds the changed
// operand rows, GatherRows/RowsTouching assemble the small sub-problem
// the ordinary Mul kernel recomputes, and PatchCtx splices the result
// into a copy of the previous product — bulk copies for untouched
// spans, row-block parallel on the shared pool, structure shared with
// the previous product when the pattern did not change (the ApplyDelta
// contract).

package sparse

import (
	"context"
	"fmt"
	"math"
	"slices"
)

// DirtyRows returns, ascending, the rows of cur that differ from the
// same row of old: a different column pattern, any value that is not
// bit-for-bit equal, or a row past old's last. Added columns alone
// dirty nothing. The same matrix (pointer-equal) is clean without a
// scan; if cur has fewer rows or columns than old — dimensions never
// shrink in this system — every row is reported.
func DirtyRows(old, cur *Matrix) []int {
	if old == cur {
		return nil
	}
	common := old.rows
	if cur.rows < old.rows || cur.cols < old.cols {
		common = 0
	}
	var dirty []int
	for r := 0; r < common; r++ {
		olo, ohi := old.rowPtr[r], old.rowPtr[r+1]
		clo, chi := cur.rowPtr[r], cur.rowPtr[r+1]
		if !slices.Equal(old.colIdx[olo:ohi], cur.colIdx[clo:chi]) || !sameBits(old.vals[olo:ohi], cur.vals[clo:chi]) {
			dirty = append(dirty, r)
		}
	}
	for r := common; r < cur.rows; r++ {
		dirty = append(dirty, r)
	}
	return dirty
}

// sameBits reports whether two equal-length value runs are identical
// bit for bit (so -0 ≠ +0 and a NaN equals itself).
func sameBits(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// RowsTouching returns, ascending, the rows with a stored entry in any
// of the listed columns — for a product L·R, the rows of L whose output
// depends on the listed rows of R.
func (m *Matrix) RowsTouching(cols []int) []int {
	if len(cols) == 0 {
		return nil
	}
	hit := make([]bool, m.cols)
	for _, c := range cols {
		hit[c] = true
	}
	var rows []int
	for r := 0; r < m.rows; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			if hit[m.colIdx[i]] {
				rows = append(rows, r)
				break
			}
		}
	}
	return rows
}

// GatherRows returns the len(rows)×Cols matrix whose row i is the
// receiver's row rows[i]. Feeding it to Mul recomputes exactly those
// rows of a product: the kernels accumulate row by row, so the result
// rows are bitwise identical to the matching rows of the full product.
func (m *Matrix) GatherRows(rows []int) *Matrix {
	out := &Matrix{rows: len(rows), cols: m.cols, rowPtr: make([]int, len(rows)+1)}
	for i, r := range rows {
		out.rowPtr[i+1] = out.rowPtr[i] + m.rowPtr[r+1] - m.rowPtr[r]
	}
	out.colIdx = make([]int32, out.rowPtr[len(rows)])
	out.vals = make([]float64, out.rowPtr[len(rows)])
	for i, r := range rows {
		copy(out.colIdx[out.rowPtr[i]:], m.colIdx[m.rowPtr[r]:m.rowPtr[r+1]])
		copy(out.vals[out.rowPtr[i]:], m.vals[m.rowPtr[r]:m.rowPtr[r+1]])
	}
	out.unit = m.unit || allOnes(out.vals)
	return out
}

// Patch describes how a matrix differs from the one it is applied to.
type Patch struct {
	// Rows, Cols are the result's dimensions (at least the receiver's;
	// added rows must be listed in Dirty or stay empty).
	Rows, Cols int
	// Dirty lists, ascending, the rows replaced wholesale: row Dirty[i]
	// becomes row i of RowBlock (len(Dirty)×Cols).
	Dirty    []int
	RowBlock *Matrix
	// PatchCols lists, ascending, the columns replaced in every row NOT
	// in Dirty: the entry at (r, PatchCols[j]) becomes ColBlock's (r, j)
	// entry, absent when that is not stored. ColBlock is
	// Rows×len(PatchCols); both are nil when only rows change.
	PatchCols []int
	ColBlock  *Matrix
}

// PatchCtx returns the receiver with p applied, as a new matrix (the
// receiver is never modified). Untouched entries are bulk-copied in
// row blocks on the shared pool; when no row's column pattern changed
// the result aliases the receiver's colIdx (and rowPtr, unless rows
// were added) and only the value array is fresh. A cancelled ctx
// returns ctx.Err() and a nil matrix.
func (m *Matrix) PatchCtx(ctx context.Context, p Patch) (*Matrix, error) {
	if p.Rows < m.rows || p.Cols < m.cols || p.Rows > maxDim || p.Cols > maxDim {
		panic(fmt.Sprintf("sparse: Patch to %dx%d from %dx%d", p.Rows, p.Cols, m.rows, m.cols))
	}
	// A block may be nil only when the list it serves is empty.
	fits := func(b *Matrix, listed, rows, cols int) bool {
		if b == nil {
			return listed == 0
		}
		return b.rows == rows && b.cols == cols
	}
	if !fits(p.RowBlock, len(p.Dirty), len(p.Dirty), p.Cols) || !fits(p.ColBlock, len(p.PatchCols), p.Rows, len(p.PatchCols)) {
		panic("sparse: Patch block dimensions do not match its row and column lists")
	}
	done := ctxDone(ctx)
	if chanClosed(done) {
		return nil, ctx.Err()
	}
	j := patchJob{base: m, p: p, out: &Matrix{rows: p.Rows, cols: p.Cols, rowPtr: make([]int, p.Rows+1)}}

	// Row blocks balanced by the receiver's nnz (the copy volume); rows
	// added past its end ride with the last block.
	w := effectiveWorkers()
	bounds := []int{0, p.Rows}
	if w > 1 && len(m.vals) >= threshold() && m.rows > 1 {
		bounds = m.rowBlockBounds(blockCount(m.rows, w))
		bounds[len(bounds)-1] = p.Rows
	}
	blocks := len(bounds) - 1

	// Pass one sizes every output row and notes whether any pattern
	// changed; pass two fills.
	same := make([]bool, blocks)
	runTasks(blocks, w, func(b int) {
		if !chanClosed(done) {
			same[b] = j.size(bounds[b], bounds[b+1])
		}
	})
	if chanClosed(done) {
		return nil, ctx.Err()
	}
	out := j.out
	for r := 0; r < p.Rows; r++ {
		out.rowPtr[r+1] += out.rowPtr[r]
	}
	out.vals = make([]float64, out.rowPtr[p.Rows])
	if !slices.Contains(same, false) {
		out.colIdx = m.colIdx
		if p.Rows == m.rows {
			out.rowPtr = m.rowPtr
		}
	} else {
		out.colIdx = make([]int32, len(out.vals))
		j.fillIdx = true
	}
	runTasks(blocks, w, func(b int) {
		if !chanClosed(done) {
			j.fill(bounds[b], bounds[b+1])
		}
	})
	if chanClosed(done) {
		return nil, ctx.Err()
	}
	out.unit = allOnes(out.vals)
	return out, nil
}

// patchJob is one PatchCtx call's shared state.
type patchJob struct {
	base    *Matrix
	p       Patch
	out     *Matrix
	fillIdx bool // colIdx is fresh (some pattern changed), so fill writes it
}

// baseRow returns the receiver's row r, empty for added rows.
func (j *patchJob) baseRow(r int) (idx []int32, vals []float64) {
	if r >= j.base.rows {
		return nil, nil
	}
	lo, hi := j.base.rowPtr[r], j.base.rowPtr[r+1]
	return j.base.colIdx[lo:hi], j.base.vals[lo:hi]
}

// size stores the output length of rows [lo, hi) in out.rowPtr[r+1]
// and reports whether every one keeps its base column pattern.
func (j *patchJob) size(lo, hi int) (same bool) {
	same = true
	d, _ := slices.BinarySearch(j.p.Dirty, lo)
	for r := lo; r < hi; r++ {
		idx, _ := j.baseRow(r)
		if d < len(j.p.Dirty) && j.p.Dirty[d] == r {
			blo, bhi := j.p.RowBlock.rowPtr[d], j.p.RowBlock.rowPtr[d+1]
			j.out.rowPtr[r+1] = bhi - blo
			same = same && slices.Equal(idx, j.p.RowBlock.colIdx[blo:bhi])
			d++
			continue
		}
		n := len(idx)
		if j.p.ColBlock != nil {
			clo, chi := j.p.ColBlock.rowPtr[r], j.p.ColBlock.rowPtr[r+1]
			for pj, c := range j.p.PatchCols {
				_, had := slices.BinarySearch(idx, int32(c))
				has := clo < chi && int(j.p.ColBlock.colIdx[clo]) == pj
				if has {
					clo++
				}
				if had != has {
					same = false
					if has {
						n++
					} else {
						n--
					}
				}
			}
		}
		j.out.rowPtr[r+1] = n
	}
	return same
}

// fill writes rows [lo, hi) of the output: block rows for dirty rows,
// and for the rest the base row with the patched columns spliced in —
// runs of kept entries between consecutive patched columns are copied
// in bulk.
func (j *patchJob) fill(lo, hi int) {
	out := j.out
	put := func(at int, idx []int32, vals []float64) int {
		if j.fillIdx {
			copy(out.colIdx[at:], idx)
		}
		copy(out.vals[at:], vals)
		return at + len(vals)
	}
	d, _ := slices.BinarySearch(j.p.Dirty, lo)
	for r := lo; r < hi; r++ {
		at := out.rowPtr[r]
		if d < len(j.p.Dirty) && j.p.Dirty[d] == r {
			blo, bhi := j.p.RowBlock.rowPtr[d], j.p.RowBlock.rowPtr[d+1]
			put(at, j.p.RowBlock.colIdx[blo:bhi], j.p.RowBlock.vals[blo:bhi])
			d++
			continue
		}
		idx, vals := j.baseRow(r)
		if j.p.ColBlock == nil {
			put(at, idx, vals)
			continue
		}
		pos := 0
		clo, chi := j.p.ColBlock.rowPtr[r], j.p.ColBlock.rowPtr[r+1]
		for pj, c := range j.p.PatchCols {
			k, had := slices.BinarySearch(idx[pos:], int32(c))
			at = put(at, idx[pos:pos+k], vals[pos:pos+k])
			pos += k
			if had {
				pos++
			}
			if clo < chi && int(j.p.ColBlock.colIdx[clo]) == pj {
				if j.fillIdx {
					out.colIdx[at] = int32(c)
				}
				out.vals[at] = j.p.ColBlock.vals[clo]
				at++
				clo++
			}
		}
		put(at, idx[pos:], vals[pos:])
	}
}
