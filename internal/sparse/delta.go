// Copy-on-write CSR delta merging: the kernel under the incremental
// ingestion subsystem (internal/ingest). A matrix stays immutable;
// applying a batch of coordinate deltas produces a *new* matrix that
// shares as much of the receiver's storage as the change allows:
//
//   - an empty delta returns the receiver itself;
//   - a delta that only adjusts the values of already-stored entries
//     (no inserts, no entries cancelled to zero) aliases the receiver's
//     rowPtr/colIdx structure and rewrites only the value array, the
//     same structure-sharing contract as Scale/RowNormalized;
//   - a structural delta allocates fresh arrays, bulk-copies the
//     untouched row spans (straight memcpy, no per-entry work) and
//     two-pointer-merges only the touched rows, so merge work is
//     O(nnz_delta + nnz of touched rows + rows) rather than the
//     O(nnz log nnz) of a from-scratch NewFromCoords build.
//
// Grow extends a matrix's dimensions without touching its entries —
// new rows and columns are empty — sharing the column/value arrays
// outright (and the row pointer too when only columns grow; more rows
// cost a copy of the whole row pointer). It is how the HIN layer keeps
// cached relation matrices warm when objects are added to a type.

package sparse

import (
	"cmp"
	"fmt"
	"slices"
)

// ApplyDelta merges a batch of coordinate deltas into the matrix and
// returns the result as a new matrix (the receiver is never modified).
// Delta values are *added* to the stored entries: an absent (row, col)
// is inserted, coinciding entries are summed, and entries whose merged
// value is exactly zero are dropped — the same semantics as appending
// the delta to the coordinate list a from-scratch NewFromCoords build
// would consume. Duplicate delta coordinates are summed in input
// order. Out-of-range coordinates panic, like NewFromCoords.
//
// For weights whose sums are exactly representable (the unweighted and
// integer-weighted relations that dominate HIN workloads) the result
// is bitwise identical to the from-scratch rebuild; otherwise it can
// differ by the usual reassociation rounding (~1 ulp per duplicate).
func (m *Matrix) ApplyDelta(delta []Coord) *Matrix {
	if len(delta) == 0 {
		return m
	}
	for _, e := range delta {
		if e.Row < 0 || e.Row >= m.rows || e.Col < 0 || e.Col >= m.cols {
			panic(fmt.Sprintf("sparse: delta entry (%d,%d) out of %dx%d", e.Row, e.Col, m.rows, m.cols))
		}
	}
	rows, starts, deltaCols, deltaVals := coalesceDelta(m.rows, delta)

	// Merge each touched row against its base row into one contiguous
	// scratch area, remembering per-row extents. structural flips when
	// any column is inserted or an entry cancels to zero, which is what
	// decides between the value-patch and rebuild paths below.
	type rowSpan struct {
		row    int
		lo, hi int // extent in mergedIdx/mergedVals
	}
	spans := make([]rowSpan, len(rows))
	var mergedIdx []int32
	var mergedVals []float64
	structural := false
	for ri, r := range rows {
		lo := len(mergedIdx)
		bi, bhi := m.rowPtr[r], m.rowPtr[r+1]
		di, dhi := starts[ri], starts[ri+1]
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
					structural = true
					mergedIdx = append(mergedIdx, deltaCols[di])
					mergedVals = append(mergedVals, deltaVals[di])
				}
				di++
			default: // equal columns: patch the stored value
				v := m.vals[bi] + deltaVals[di]
				if v == 0 {
					structural = true
				} else {
					mergedIdx = append(mergedIdx, m.colIdx[bi])
					mergedVals = append(mergedVals, v)
				}
				bi++
				di++
			}
		}
		spans[ri] = rowSpan{row: r, lo: lo, hi: len(mergedIdx)}
	}
	if !structural {
		// Pattern unchanged: alias the immutable rowPtr/colIdx structure
		// and rewrite only the value array (copy-on-write, like Scale).
		n := &Matrix{
			rows:   m.rows,
			cols:   m.cols,
			rowPtr: m.rowPtr,
			colIdx: m.colIdx,
			vals:   slices.Clone(m.vals),
		}
		unit := m.unit
		for _, sp := range spans {
			copy(n.vals[m.rowPtr[sp.row]:], mergedVals[sp.lo:sp.hi])
			if unit {
				unit = allOnes(mergedVals[sp.lo:sp.hi])
			}
		}
		n.unit = unit
		return n
	}

	// Structural change: fresh arrays. Untouched row spans are copied
	// in bulk between consecutive touched rows.
	nnz := len(m.vals)
	for _, sp := range spans {
		nnz += (sp.hi - sp.lo) - (m.rowPtr[sp.row+1] - m.rowPtr[sp.row])
	}
	n := &Matrix{
		rows:   m.rows,
		cols:   m.cols,
		rowPtr: make([]int, m.rows+1),
		colIdx: make([]int32, nnz),
		vals:   make([]float64, nnz),
	}
	unit := m.unit
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
		if unit {
			unit = allOnes(mergedVals[sp.lo:sp.hi])
		}
		out += sp.hi - sp.lo
		n.rowPtr[sp.row+1] = out
		prevEnd = m.rowPtr[sp.row+1]
		prevRow = sp.row + 1
	}
	flushGap(m.rows)
	n.unit = unit
	return n
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

// Grow returns a matrix with the same stored entries but the given
// (larger or equal) dimensions; new rows and columns are empty. The
// column/value arrays are always shared with the receiver, and the row
// pointer too when the row count is unchanged: growing columns is O(1),
// growing rows copies the row pointer, O(rows) however few are new — so
// callers grow once per batch, not once per added row. Shrinking panics.
func (m *Matrix) Grow(rows, cols int) *Matrix {
	if rows < m.rows || cols < m.cols {
		panic(fmt.Sprintf("sparse: Grow %dx%d below current %dx%d", rows, cols, m.rows, m.cols))
	}
	if rows > maxDim || cols > maxDim {
		panic(fmt.Sprintf("sparse: dimensions %dx%d exceed the int32 index range (max %d)", rows, cols, maxDim))
	}
	if rows == m.rows && cols == m.cols {
		return m
	}
	n := &Matrix{rows: rows, cols: cols, rowPtr: m.rowPtr, colIdx: m.colIdx, vals: m.vals, unit: m.unit}
	if rows > m.rows {
		rp := make([]int, rows+1)
		copy(rp, m.rowPtr)
		for r := m.rows; r < rows; r++ {
			rp[r+1] = rp[m.rows]
		}
		n.rowPtr = rp
	}
	return n
}
