// Copy-on-write CSR delta merging: the kernel under the incremental
// ingestion subsystem (internal/ingest). A matrix stays immutable;
// merging a batch of coordinate deltas, at dimensions that may have
// grown, produces a *new* matrix that moves only what the batch changed:
//
//   - an empty delta at the same dimensions returns the receiver itself;
//   - a delta that only writes rows past the receiver's last (the rows a
//     paper-major relation gains) appends them in place, behind the
//     receiver's end in the arrays it shares with it — when the receiver
//     holds those arrays' claim (see Matrix.claim) and they have room.
//     Otherwise it copies them once, with 1/headroomShare of room to
//     spare, and the result holds a claim of its own. Grow, which
//     appends rows without entries, shares the column and value arrays
//     either way;
//   - a delta that only adjusts the values of already-stored entries
//     (no inserts, no entries cancelled to zero) aliases the receiver's
//     rowPtr/colIdx structure and rewrites only the value array, the
//     same structure-sharing contract as Scale/RowNormalized;
//   - any other delta allocates fresh arrays, bulk-copies the untouched
//     row spans (straight memcpy, no per-entry work) and
//     two-pointer-merges only the touched rows, so merge work is
//     O(nnz_delta + nnz of touched rows + rows) rather than the
//     O(nnz log nnz) of a from-scratch NewFromCoords build.
//
// Whatever the path, a matrix reads only its own rows: an in-place
// append writes past every other sharer's end, and one matrix at most —
// the claim's holder, settled by a compare-and-swap — may do so, so a
// second merge from the same parent (a sibling clone, a discarded
// failed write) copies. Every result records the rows it changed below
// the receiver's last, which DirtyRows answers from.

package sparse

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// headroomShare: a copy made to append rows leaves 1/headroomShare of
// each array free, so the next appends land in place — a copy per
// about that share of growth, at that share of memory.
const headroomShare = 16

// ApplyDelta merges a batch of coordinate deltas into the matrix at its
// own dimensions: Extend(m.Rows(), m.Cols(), delta).
func (m *Matrix) ApplyDelta(delta []Coord) *Matrix {
	return m.Extend(m.rows, m.cols, delta)
}

// Grow returns a matrix with the same stored entries but the given
// (larger or equal) dimensions; new rows and columns are empty:
// Extend(rows, cols, nil). Its arrays are the receiver's, appended to in
// place when the receiver holds their claim; otherwise the column/value
// arrays are shared and more rows copy the row pointer, O(rows).
func (m *Matrix) Grow(rows, cols int) *Matrix {
	return m.Extend(rows, cols, nil)
}

// Extend grows the matrix to rows×cols (new rows and columns empty) and
// merges a batch of coordinate deltas into it, returning the result as
// a new matrix; the receiver is never modified. Delta values are *added*
// to the stored entries: an absent (row, col) is inserted, coinciding
// entries are summed, and entries whose merged value is exactly zero are
// dropped — the same semantics as appending the delta to the coordinate
// list a from-scratch NewFromCoords build would consume. Duplicate delta
// coordinates are summed in input order. Shrinking and out-of-range
// coordinates panic, like NewFromCoords.
//
// For weights whose sums are exactly representable (the unweighted and
// integer-weighted relations that dominate HIN workloads) the result
// is bitwise identical to the from-scratch rebuild; otherwise it can
// differ by the usual reassociation rounding (~1 ulp per duplicate).
func (m *Matrix) Extend(rows, cols int, delta []Coord) *Matrix {
	if rows < m.rows || cols < m.cols {
		panic(fmt.Sprintf("sparse: Extend to %dx%d below current %dx%d", rows, cols, m.rows, m.cols))
	}
	if rows > maxDim || cols > maxDim {
		panic(fmt.Sprintf("sparse: dimensions %dx%d exceed the int32 index range (max %d)", rows, cols, maxDim))
	}
	for _, e := range delta {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			panic(fmt.Sprintf("sparse: delta entry (%d,%d) out of %dx%d", e.Row, e.Col, rows, cols))
		}
	}
	if len(delta) == 0 && rows == m.rows && cols == m.cols {
		return m
	}
	drows, starts, deltaCols, deltaVals := coalesceDelta(rows, delta)
	// drows[:mid] are the receiver's rows; the rest are appended, each
	// holding its delta entries that did not cancel.
	mid, _ := slices.BinarySearch(drows, m.rows)
	added := 0
	for _, v := range deltaVals[starts[mid]:] {
		if v != 0 {
			added++
		}
	}
	n := &Matrix{rows: rows, cols: cols, unit: m.unit, id: lastID.Add(1), from: m.id}
	tail := func(at int) { // rows [m.rows, rows) from entry at on
		n.appendRows(m.rows, at, drows[mid:], starts[mid:], deltaCols, deltaVals)
	}
	if mid == 0 {
		m.extendInto(n, len(m.vals)+added)
		tail(len(m.vals))
		return n
	}

	// Merge each touched row against its base row into one contiguous
	// scratch area, remembering per-row extents. structural flips when
	// any column is inserted or an entry cancels to zero, which is what
	// decides between the value-patch and rebuild paths below; a row
	// whose pattern or any value's bits changed goes in the record.
	type rowSpan struct {
		row    int
		lo, hi int // extent in mergedIdx/mergedVals
	}
	spans := make([]rowSpan, mid)
	var mergedIdx []int32
	var mergedVals []float64
	structural := false
	for ri, r := range drows[:mid] {
		lo := len(mergedIdx)
		bi, bhi := m.rowPtr[r], m.rowPtr[r+1]
		di, dhi := starts[ri], starts[ri+1]
		changed := false
		for bi < bhi || di < dhi {
			switch {
			case di == dhi || (bi < bhi && m.colIdx[bi] < deltaCols[di]):
				mergedIdx = append(mergedIdx, m.colIdx[bi])
				mergedVals = append(mergedVals, m.vals[bi])
				bi++
			case bi == bhi || deltaCols[di] < m.colIdx[bi]:
				// Insert — unless the delta's own duplicates cancelled
				// to zero, in which case nothing is stored and the
				// structure is untouched.
				if deltaVals[di] != 0 {
					changed, structural = true, true
					mergedIdx = append(mergedIdx, deltaCols[di])
					mergedVals = append(mergedVals, deltaVals[di])
				}
				di++
			default: // equal columns: patch the stored value
				v := m.vals[bi] + deltaVals[di]
				if v == 0 {
					changed, structural = true, true
				} else {
					changed = changed || math.Float64bits(v) != math.Float64bits(m.vals[bi])
					mergedIdx = append(mergedIdx, m.colIdx[bi])
					mergedVals = append(mergedVals, v)
				}
				bi++
				di++
			}
		}
		if changed {
			n.dirty = append(n.dirty, r)
		}
		spans[ri] = rowSpan{row: r, lo: lo, hi: len(mergedIdx)}
	}
	if !structural && added == 0 {
		// Pattern unchanged: alias the immutable rowPtr/colIdx structure
		// and rewrite only the value array (copy-on-write, like Scale).
		n.rowPtr, n.colIdx, n.vals = m.rowPtr, m.colIdx, slices.Clone(m.vals)
		for _, sp := range spans {
			copy(n.vals[m.rowPtr[sp.row]:], mergedVals[sp.lo:sp.hi])
			if n.unit {
				n.unit = allOnes(mergedVals[sp.lo:sp.hi])
			}
		}
		if rows > m.rows {
			n.rowPtr = make([]int, rows+1)
			copy(n.rowPtr, m.rowPtr)
			tail(len(m.vals))
		}
		return n
	}

	// Structural change: fresh arrays, which the result owns. Untouched
	// row spans are copied in bulk between consecutive touched rows.
	nnz := len(m.vals) + added
	for _, sp := range spans {
		nnz += (sp.hi - sp.lo) - (m.rowPtr[sp.row+1] - m.rowPtr[sp.row])
	}
	n.rowPtr = make([]int, rows+1)
	n.colIdx = make([]int32, nnz)
	n.vals = make([]float64, nnz)
	n.claim = new(atomic.Uint64)
	n.claim.Store(n.id)
	out := 0                     // write cursor into n.colIdx/n.vals
	prevEnd := 0                 // end (in m's arrays) of the last copied/merged range
	prevRow := 0                 // first row whose rowPtr is not yet final
	flushGap := func(upto int) { // bulk-copy base rows [prevRow, upto)
		span := m.rowPtr[upto] - prevEnd
		copy(n.colIdx[out:], m.colIdx[prevEnd:m.rowPtr[upto]])
		copy(n.vals[out:], m.vals[prevEnd:m.rowPtr[upto]])
		shift := out - prevEnd
		for r := prevRow; r < upto; r++ {
			n.rowPtr[r+1] = m.rowPtr[r+1] + shift
		}
		out += span
	}
	for _, sp := range spans {
		flushGap(sp.row)
		copy(n.colIdx[out:], mergedIdx[sp.lo:sp.hi])
		copy(n.vals[out:], mergedVals[sp.lo:sp.hi])
		if n.unit {
			n.unit = allOnes(mergedVals[sp.lo:sp.hi])
		}
		out += sp.hi - sp.lo
		n.rowPtr[sp.row+1] = out
		prevEnd = m.rowPtr[sp.row+1]
		prevRow = sp.row + 1
	}
	flushGap(m.rows)
	tail(out)
	return n
}

// extendInto gives n — which keeps every row of m and holds nnz entries
// — m's rows: m's own arrays, resliced past m's end, when m holds their
// claim and they have room, and n takes the claim; for an n with no
// entries past m's, m's column/value arrays and, with no rows added, its
// row pointer too, shared without the claim; otherwise a copy with
// headroom that n owns. n's rows past m's are left for appendRows.
func (m *Matrix) extendInto(n *Matrix, nnz int) {
	if m.claim != nil && cap(m.rowPtr) > n.rows && cap(m.colIdx) >= nnz && cap(m.vals) >= nnz &&
		m.claim.CompareAndSwap(m.id, n.id) {
		n.claim = m.claim
		n.rowPtr, n.colIdx, n.vals = m.rowPtr[:n.rows+1], m.colIdx[:nnz], m.vals[:nnz]
		return
	}
	if nnz == len(m.vals) {
		n.rowPtr, n.colIdx, n.vals = m.rowPtr, m.colIdx, m.vals
		if n.rows > m.rows {
			n.rowPtr = make([]int, n.rows+1)
			copy(n.rowPtr, m.rowPtr)
		}
		return
	}
	roomy := func(n int) int { return n + n/headroomShare }
	n.rowPtr = make([]int, n.rows+1, roomy(n.rows+1))
	n.colIdx = make([]int32, nnz, roomy(nnz))
	n.vals = make([]float64, nnz, roomy(nnz))
	copy(n.rowPtr, m.rowPtr)
	copy(n.colIdx, m.colIdx)
	copy(n.vals, m.vals)
	n.claim = new(atomic.Uint64)
	n.claim.Store(n.id)
}

// appendRows writes the matrix's rows [first, rows) from entry at on:
// row drows[i] holds the nonzero deltas of its extent starts[i] into
// deltaCols/deltaVals, every other row is empty. rowPtr[first] is set.
func (m *Matrix) appendRows(first, at int, drows, starts []int, deltaCols []int32, deltaVals []float64) {
	i := 0
	for r := first; r < m.rows; r++ {
		if i < len(drows) && drows[i] == r {
			for k := starts[i]; k < starts[i+1]; k++ {
				if v := deltaVals[k]; v != 0 {
					m.colIdx[at], m.vals[at] = deltaCols[k], v
					m.unit = m.unit && v == 1
					at++
				}
			}
			i++
		}
		m.rowPtr[r+1] = at
	}
}

// countingShare: below one delta entry per countingShare rows, sorting the
// batch (n·log n compares) beats allocating and sweeping a per-row counter.
const countingShare = 32

// coalesceDelta groups the delta by row (ascending) and, within each
// row, produces column-sorted entries with duplicates summed in input
// order. It returns the touched rows (ascending) and, per row, the
// [starts[i], starts[i+1]) extent into the returned deltaCols /
// deltaVals arrays. Grouping is stable either way — a counting sort
// like NewFromCoords', O(nnz_delta + numRows), or for a batch far smaller
// than the matrix a stable sort of the batch alone — followed by tiny
// stable per-row column sorts (stability is what keeps duplicate sums
// in input order).
func coalesceDelta(numRows int, delta []Coord) (rows []int, starts []int, deltaCols []int32, deltaVals []float64) {
	sorted := make([]Coord, len(delta))
	if len(delta) < numRows/countingShare {
		copy(sorted, delta)
		slices.SortStableFunc(sorted, func(a, b Coord) int { return cmp.Compare(a.Row, b.Row) })
	} else {
		next := make([]int, numRows+1) // next[r]: where row r's next entry goes
		for _, e := range delta {
			next[e.Row+1]++
		}
		for r := 0; r < numRows; r++ {
			next[r+1] += next[r]
		}
		for _, e := range delta {
			sorted[next[e.Row]] = e
			next[e.Row]++
		}
	}

	deltaCols = make([]int32, 0, len(delta))
	deltaVals = make([]float64, 0, len(delta))
	for i := 0; i < len(sorted); {
		r := sorted[i].Row
		j := i + 1
		for j < len(sorted) && sorted[j].Row == r {
			j++
		}
		rows = append(rows, r)
		starts = append(starts, len(deltaCols))
		row := sorted[i:j]
		if len(row) > 1 {
			slices.SortStableFunc(row, func(a, b Coord) int { return cmp.Compare(a.Col, b.Col) })
		}
		for k := 0; k < len(row); {
			c := row[k].Col
			v := 0.0
			for ; k < len(row) && row[k].Col == c; k++ {
				v += row[k].Val
			}
			deltaCols = append(deltaCols, int32(c))
			deltaVals = append(deltaVals, v)
		}
		i = j
	}
	starts = append(starts, len(deltaCols))
	return rows, starts, deltaCols, deltaVals
}
