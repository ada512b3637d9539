// Row-incremental patching: the kernels under the meta-path engine's
// stale-entry refresh (internal/metapath). When a few rows of an
// operand change, the product it feeds changes in a few rows (and, for
// a symmetric Gram product, the mirrored columns); everything else is
// carried over from the previous product. DirtyRows finds the changed
// operand rows — read off the merge's own record when the operand is
// one merge from the matrix the product was computed from, by a row
// scan otherwise — GatherRows/RowsTouching assemble the small
// sub-problem the ordinary MulCtx kernel recomputes, and PatchCtx splices
// the result into a copy of the previous product: it finds the rows the
// patch rewrites, splices only those, and moves every run of rows
// between them in one copy, row-block parallel on the shared pool,
// structure shared with the previous product when the pattern did not
// change (the ApplyDelta contract).

package sparse

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
)

// DirtyRows returns, ascending, the rows of cur that differ from the
// same row of old: a different column pattern, any value that is not
// bit-for-bit equal, or a row past old's last. Added columns alone
// dirty nothing. The same matrix (pointer-equal) is clean without a
// scan, and so is a cur merged from old in one step (Extend, ApplyDelta,
// Grow): the merge recorded the rows it changed. Otherwise every row is
// compared; if cur has fewer rows or columns than old — dimensions never
// shrink in this system — every row is reported.
func DirtyRows(old, cur *Matrix) []int {
	if old == cur {
		return nil
	}
	if old.id != 0 && cur.from == old.id {
		dirty := slices.Clone(cur.dirty)
		for r := old.rows; r < cur.rows; r++ {
			dirty = append(dirty, r)
		}
		return dirty
	}
	return scanDirty(old, cur)
}

// scanDirty is DirtyRows by comparing every row.
func scanDirty(old, cur *Matrix) []int {
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
// receiver's row rows[i]. Feeding it to MulCtx recomputes exactly those
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

// patcher is a Patch checked against the matrix it applies to and made
// ready to apply one row at a time.
type patcher struct {
	Patch
	marks []uint64 // the set PatchCols, one bit per result column
	cols  *Matrix  // ColBlock with each entry under the column it is written to (Rows×Cols), sharing its values
}

// newPatcher panics unless p can be applied to m: dimensions that do not
// shrink and fit an index, and blocks shaped by the lists they serve.
func newPatcher(m *Matrix, p Patch) *patcher {
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
	pt := &patcher{Patch: p}
	if len(p.PatchCols) > 0 {
		pt.marks = make([]uint64, (p.Cols+63)/64)
		for _, c := range p.PatchCols {
			pt.marks[c>>6] |= 1 << (uint(c) & 63)
		}
		cb := p.ColBlock
		pt.cols = &Matrix{rows: cb.rows, cols: p.Cols, rowPtr: cb.rowPtr, colIdx: make([]int32, len(cb.colIdx)), vals: cb.vals}
		for i, j := range cb.colIdx {
			pt.cols.colIdx[i] = int32(p.PatchCols[j]) // ascending in j, so rows stay sorted
		}
		pt.ColBlock = nil // read through cols from here on
	}
	return pt
}

// patched reports whether column c is one of PatchCols.
func (p *patcher) patched(c int32) bool { return p.marks[c>>6]>>(uint(c)&63)&1 != 0 }

// spliced returns how many entries a reached row holds once patched —
// its base entries outside the patched columns plus its patched-column
// entries cidx — and whether its column pattern is still idx: every
// entry it had in a patched column is written again, and nothing else.
func (p *patcher) spliced(idx, cidx []int32) (n int, same bool) {
	had := 0
	for _, c := range idx {
		if p.patched(c) {
			had++
		}
	}
	same = had == len(cidx)
	for i := 0; same && i < len(cidx); i++ {
		_, same = slices.BinarySearch(idx, cidx[i])
	}
	return len(idx) - had + len(cidx), same
}

// splice writes a reached row — base entries (idx, vals)
// outside the patched columns, merged with its patched-column entries
// (cidx, cvals) — into ov and, unless it is nil, oi, ascending by
// column, and returns the number of entries written. One pass over the
// row: its cost is the row's length, however many columns are patched.
func (p *patcher) splice(idx []int32, vals []float64, cidx []int32, cvals []float64, oi []int32, ov []float64) int {
	at, pos := 0, 0
	vals = vals[:len(idx)]
	for j := 0; j <= len(cidx); j++ {
		// Base entries up to the row's next patched-column entry, then
		// that entry; after the last one, the rest of the row.
		next := int32(math.MaxInt32)
		if j < len(cidx) {
			next = cidx[j]
		}
		for ; pos < len(idx) && idx[pos] < next; pos++ {
			if c := idx[pos]; !p.patched(c) {
				if oi != nil {
					oi[at] = c
				}
				ov[at] = vals[pos]
				at++
			}
		}
		if j < len(cidx) {
			if oi != nil {
				oi[at] = next
			}
			ov[at] = cvals[j]
			at++
		}
	}
	return at
}

// PatchCtx returns the receiver with p applied, as a new matrix (the
// receiver is never modified). Only the rows the patch rewrites — the
// dirty rows, and the rows the patched columns reach — are written one
// by one, each in one pass; every run of rows between them moves with
// one copy of its entries, on the shared pool in row blocks. When no
// row's column pattern changed the result aliases the receiver's colIdx
// (and rowPtr, unless rows were added) and only the value array is
// fresh. The result is known symmetric, and Symmetric answers without a
// scan, when the receiver is and the patch keeps it so (see
// keepsSymmetry): the Gram patch the meta-path engine writes. A
// cancelled ctx returns ctx.Err() and a nil matrix.
func (m *Matrix) PatchCtx(ctx context.Context, patch Patch) (*Matrix, error) {
	p := newPatcher(m, patch)
	done := ctxDone(ctx)
	if chanClosed(done) {
		return nil, ctx.Err()
	}
	j := patchJob{base: m, p: p, rows: p.rewritten(m), out: &Matrix{rows: p.Rows, cols: p.Cols}}

	// Size the rewritten rows; the rest keep their length.
	same := true
	nnz := len(m.vals)
	for i := range j.rows {
		w := &j.rows[i]
		idx, _ := m.rowOrNone(w.row)
		if w.dirty >= 0 {
			bidx, _ := p.RowBlock.RowEntries(w.dirty)
			w.n = len(bidx)
			same = same && slices.Equal(idx, bidx)
		} else {
			cidx, _ := p.colEntries(w.row)
			var kept bool
			w.n, kept = p.spliced(idx, cidx)
			same = same && kept
		}
		nnz += w.n - len(idx)
	}
	out := j.out
	out.vals = make([]float64, nnz)
	if same && p.Rows == m.rows {
		out.rowPtr, out.colIdx = m.rowPtr, m.colIdx
	} else {
		j.offsets()
		if same {
			out.colIdx = m.colIdx
		} else {
			out.colIdx = make([]int32, nnz)
			j.fillIdx = true
		}
	}

	// Row blocks balanced by the receiver's nnz (the copy volume); rows
	// added past its end ride with the last block.
	bounds := []int{0, p.Rows}
	if blocks := splitBlocks(m.rows, len(m.vals)); blocks > 1 {
		bounds = m.rowBlockBounds(blocks)
		bounds[blocks] = p.Rows
	}
	runTasks(len(bounds)-1, func(b int) {
		if !chanClosed(done) {
			j.fill(bounds[b], bounds[b+1])
		}
	})
	if chanClosed(done) {
		return nil, ctx.Err()
	}
	out.unit = allOnes(out.vals)
	out.sym = m.sym && patch.keepsSymmetry()
	return out, nil
}

// keepsSymmetry reports whether p, applied to a symmetric matrix, leaves
// it symmetric: it is square, it patches exactly the columns of the rows
// it replaces, ColBlock is RowBlockᵀ entry for entry, and the block where
// dirty rows meet dirty columns is itself symmetric. Every entry outside
// the dirty rows and columns is then the base's, and every entry of a
// dirty row is mirrored in its column. The cost is the patch's, not the
// matrix's: one pass over each block and a search per dirty×dirty entry.
func (p Patch) keepsSymmetry() bool {
	if p.Rows != p.Cols || !slices.Equal(p.PatchCols, p.Dirty) {
		return false
	}
	if len(p.Dirty) == 0 {
		return true
	}
	if !transposeOf(p.RowBlock, p.ColBlock) {
		return false
	}
	for i, d := range p.Dirty {
		idx, vals := p.RowBlock.RowEntries(i)
		for k, c := range idx {
			j, ok := slices.BinarySearch(p.Dirty, int(c))
			if !ok {
				continue
			}
			jdx, jvals := p.RowBlock.RowEntries(j)
			at, ok := slices.BinarySearch(jdx, int32(d))
			if !ok || jvals[at] != vals[k] {
				return false
			}
		}
	}
	return true
}

// patchJob is one PatchCtx call's shared state.
type patchJob struct {
	base    *Matrix
	p       *patcher
	rows    []rewrite // the rows the patch rewrites, ascending
	out     *Matrix
	fillIdx bool // colIdx is fresh (some pattern changed), so fill writes it
}

// rewrite is one row the patch rewrites: a dirty row, replaced by
// RowBlock's row dirty, or (dirty < 0) a row the patched columns reach.
// n is its length once patched.
type rewrite struct {
	row, dirty, n int
}

// colEntries returns the patched-column entries written into non-dirty
// row r (none when no column is patched).
func (p *patcher) colEntries(r int) ([]int32, []float64) {
	if p.cols == nil {
		return nil, nil
	}
	return p.cols.RowEntries(r)
}

// rewritten lists, ascending, the rows p rewrites in m: the dirty rows,
// and every other row with an entry in a patched column — found in one
// pass over m's column indices — or a patched-column entry to receive.
// With no patched column it is the dirty rows alone.
func (p *patcher) rewritten(m *Matrix) []rewrite {
	rows := p.Dirty
	if p.cols != nil {
		rows = slices.Clone(rows)
		for i := 0; i < len(m.colIdx); i++ {
			if p.patched(m.colIdx[i]) {
				r, _ := slices.BinarySearch(m.rowPtr[1:m.rows+1], i+1) // the row holding entry i
				rows = append(rows, r)
				i = m.rowPtr[r+1] - 1
			}
		}
		for r := 0; r < p.Rows; r++ {
			if p.cols.rowPtr[r+1] > p.cols.rowPtr[r] {
				rows = append(rows, r)
			}
		}
		slices.Sort(rows)
		rows = slices.Compact(rows)
	}
	out := make([]rewrite, len(rows))
	for i, r := range rows {
		d, ok := slices.BinarySearch(p.Dirty, r)
		if !ok {
			d = -1
		}
		out[i] = rewrite{row: r, dirty: d}
	}
	return out
}

// offsets writes out.rowPtr: each run of rows the patch leaves alone is
// the receiver's, shifted by what the rewritten rows before it gained
// or lost; a row added past the receiver's last and not rewritten is
// empty.
func (j *patchJob) offsets() {
	m, out := j.base, j.out
	out.rowPtr = make([]int, out.rows+1)
	r := 0
	run := func(upto int) { // rows [r, upto) are the receiver's
		shift := out.rowPtr[r] - m.rowPtr[min(r, m.rows)]
		for ; r < upto; r++ {
			out.rowPtr[r+1] = m.rowPtr[min(r+1, m.rows)] + shift
		}
	}
	for _, w := range j.rows {
		run(w.row)
		out.rowPtr[r+1] = out.rowPtr[r] + w.n
		r++
	}
	run(out.rows)
}

// rowOrNone returns the receiver's row r, empty for a row past its last
// (one a patch adds).
func (m *Matrix) rowOrNone(r int) (idx []int32, vals []float64) {
	if r >= m.rows {
		return nil, nil
	}
	return m.RowEntries(r)
}

// fill writes rows [lo, hi) of the output: each run of rows the patch
// leaves alone in one copy, block rows for dirty rows, and reached rows
// with the patched columns spliced in.
func (j *patchJob) fill(lo, hi int) {
	m, out, p := j.base, j.out, j.p
	run := func(a, b int) { // copy rows [a, b) of the receiver
		b = min(b, m.rows)
		if a >= b {
			return
		}
		at, from, to := out.rowPtr[a], m.rowPtr[a], m.rowPtr[b]
		if j.fillIdx {
			copy(out.colIdx[at:], m.colIdx[from:to])
		}
		copy(out.vals[at:], m.vals[from:to])
	}
	i, _ := slices.BinarySearchFunc(j.rows, lo, func(w rewrite, r int) int { return cmp.Compare(w.row, r) })
	r := lo
	for ; i < len(j.rows) && j.rows[i].row < hi; i++ {
		w := j.rows[i]
		run(r, w.row)
		at := out.rowPtr[w.row]
		if w.dirty >= 0 {
			bidx, bvals := p.RowBlock.RowEntries(w.dirty)
			if j.fillIdx {
				copy(out.colIdx[at:], bidx)
			}
			copy(out.vals[at:], bvals)
		} else {
			idx, vals := m.rowOrNone(w.row)
			cidx, cvals := p.colEntries(w.row)
			var oi []int32
			if j.fillIdx {
				oi = out.colIdx[at:]
			}
			p.splice(idx, vals, cidx, cvals, oi, out.vals[at:])
		}
		r = w.row + 1
	}
	run(r, hi)
}
