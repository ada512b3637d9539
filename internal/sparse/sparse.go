// Package sparse implements the compressed sparse row (CSR) matrix and
// dense-vector kernels used by every iterative algorithm in this
// repository (PageRank, HITS, authority ranking, SimRank, PathSim,
// spectral clustering).
//
// The paper's algorithms were originally built on MATLAB-style numeric
// stacks; Go has no canonical sparse library, so this package hand-rolls
// the handful of kernels the reproduction needs: mat-vec, transposed
// mat-vec, row normalization, transpose, and sparse-sparse product for
// meta-path composition.
//
// The kernels are memory-bandwidth-bound, so the layout is kept lean:
// column indices are stored as int32 (HIN object counts stay far below
// 2^31; construction rejects larger dimensions), all-ones value arrays —
// the unweighted bipartite relations that dominate HIN workloads — are
// detected once at assembly time and multiplied by pattern-only loops
// that never touch the value array, and derived matrices (Scale,
// RowNormalized) alias the immutable rowPtr/colIdx structure instead of
// deep-copying it. The fused MulVecNorm/MulVecTNorm kernels apply a
// row-normalization vector on the fly, so power iterations never
// materialize a row-stochastic copy of their adjacency matrix.
//
// All heavy kernels execute on a shared goroutine pool (see
// parallel.go): operations over matrices with enough stored nonzeros
// are split into nnz-balanced row blocks across up to Parallelism(0)
// workers, while small operations fall back to the serial loops so unit
// tests and tiny networks pay no scheduling overhead. Matrices are
// immutable, so concurrent kernel calls on the same matrix are safe.
package sparse

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// Coord is one nonzero entry used while assembling a matrix.
type Coord struct {
	Row, Col int
	Val      float64
}

// maxDim bounds matrix dimensions so every row and column index fits an
// int32 (column indices are stored compact; transposes swap the roles).
const maxDim = math.MaxInt32

// Matrix is an immutable CSR sparse matrix. Column indices are stored
// as int32 — half the index bandwidth of []int on 64-bit hosts — which
// is why construction rejects dimensions above MaxInt32.
type Matrix struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int32
	vals       []float64
	// unit records that every stored value is exactly 1.0 (an unweighted
	// relation), letting the kernels run pattern-only loops that skip
	// the value array entirely.
	unit bool
	// sym records that the matrix is symmetric by the way this package
	// built it: a Gram product (gram) or a patch that keeps a symmetric
	// base's mirror (PatchCtx). Nothing else sets it and no derived
	// matrix inherits it, so Symmetric can trust it without a scan.
	sym bool

	// id names the matrix among this process's builds and merges (0: a
	// matrix made any other way). A merge result records the id it was
	// merged from and, in dirty, the rows below that matrix's last whose
	// pattern or value bits the merge changed — what DirtyRows answers
	// without a scan. No pointer to the parent is kept.
	id, from uint64
	dirty    []int
	// claim is shared by every merge result whose arrays are these: it
	// holds the id of the one matrix that may append rows in place, past
	// its own end and so past every other's (see Extend). Nil for a
	// matrix that aliases arrays it does not own.
	claim *atomic.Uint64
}

// lastID numbers matrices for the merge record and the append claim.
var lastID atomic.Uint64

// NewFromCoords builds a CSR matrix from coordinate triples. Duplicate
// (row, col) entries are summed. Entries out of range panic, as do
// dimensions above MaxInt32 (column indices are stored as int32; a
// larger network must be sharded before it reaches the kernels).
func NewFromCoords(rows, cols int, entries []Coord) *Matrix {
	if rows < 0 || cols < 0 {
		panic("sparse: negative dimensions")
	}
	if rows > maxDim || cols > maxDim {
		panic(fmt.Sprintf("sparse: dimensions %dx%d exceed the int32 index range (max %d)", rows, cols, maxDim))
	}
	// Group entries by row with a counting sort — O(nnz + rows) — then
	// order each row by column. The per-row sorts are tiny, so this
	// replaces one comparison sort over all entries (the dominant cost
	// of cold matrix assembly) with near-linear passes.
	cnt := make([]int, rows+1)
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			panic(fmt.Sprintf("sparse: entry (%d,%d) out of %dx%d", e.Row, e.Col, rows, cols))
		}
		cnt[e.Row+1]++
	}
	for r := 0; r < rows; r++ {
		cnt[r+1] += cnt[r]
	}
	sorted := make([]Coord, len(entries))
	next := append([]int(nil), cnt[:rows]...)
	for _, e := range entries {
		sorted[next[e.Row]] = e
		next[e.Row]++
	}
	for r := 0; r < rows; r++ {
		row := sorted[cnt[r]:cnt[r+1]]
		if len(row) > 1 {
			slices.SortFunc(row, func(a, b Coord) int { return cmp.Compare(a.Col, b.Col) })
		}
	}
	m := &Matrix{
		rows: rows, cols: cols,
		rowPtr: make([]int, rows+1),
		colIdx: make([]int32, 0, len(sorted)),
		vals:   make([]float64, 0, len(sorted)),
		unit:   true,
		id:     lastID.Add(1),
	}
	for i := 0; i < len(sorted); {
		c := sorted[i]
		v := 0.0
		j := i
		for ; j < len(sorted) && sorted[j].Row == c.Row && sorted[j].Col == c.Col; j++ {
			v += sorted[j].Val
		}
		if v != 0 {
			if v != 1 {
				m.unit = false
			}
			m.colIdx = append(m.colIdx, int32(c.Col))
			m.vals = append(m.vals, v)
			m.rowPtr[c.Row+1]++
		}
		i = j
	}
	for r := 0; r < rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	return m
}

// NewFromDense builds a CSR matrix from a dense row-major [][]float64.
func NewFromDense(d [][]float64) *Matrix {
	rows := len(d)
	cols := 0
	if rows > 0 {
		cols = len(d[0])
	}
	var entries []Coord
	for r, row := range d {
		if len(row) != cols {
			panic("sparse: ragged dense input")
		}
		for c, v := range row {
			if v != 0 {
				entries = append(entries, Coord{r, c, v})
			}
		}
	}
	return NewFromCoords(rows, cols, entries)
}

// allOnes reports whether every value is exactly 1.0.
func allOnes(vals []float64) bool {
	for _, v := range vals {
		if v != 1 {
			return false
		}
	}
	return true
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// NNZ returns the number of stored nonzeros.
func (m *Matrix) NNZ() int { return len(m.vals) }

// Unit reports whether every stored value is exactly 1.0, the
// unweighted-relation pattern the kernels exploit with value-skipping
// loops.
func (m *Matrix) Unit() bool { return m.unit }

// Row invokes f(col, val) for every stored entry of row r.
func (m *Matrix) Row(r int, f func(col int, val float64)) {
	for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
		f(int(m.colIdx[i]), m.vals[i])
	}
}

// RowEntries returns row r's stored column indices (ascending) and
// values as views into the matrix's own arrays — what a kernel reads
// when it cannot afford Row's call per entry. The matrix is immutable:
// callers must not write through them.
func (m *Matrix) RowEntries(r int) ([]int32, []float64) {
	lo, hi := m.rowPtr[r], m.rowPtr[r+1]
	return m.colIdx[lo:hi:hi], m.vals[lo:hi:hi]
}

// RowNNZ returns the number of stored entries in row r.
func (m *Matrix) RowNNZ(r int) int { return m.rowPtr[r+1] - m.rowPtr[r] }

// At returns the value at (r, c); zero when not stored. O(log nnz(row)).
func (m *Matrix) At(r, c int) float64 {
	if c < 0 || c >= m.cols {
		return 0
	}
	lo, hi := m.rowPtr[r], m.rowPtr[r+1]
	i, ok := slices.BinarySearch(m.colIdx[lo:hi], int32(c))
	if ok {
		return m.vals[lo+i]
	}
	return 0
}

// RowSum returns the sum of entries in row r.
func (m *Matrix) RowSum(r int) float64 {
	s := 0.0
	for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
		s += m.vals[i]
	}
	return s
}

// Sum returns the sum of all entries.
func (m *Matrix) Sum() float64 {
	s := 0.0
	for _, v := range m.vals {
		s += v
	}
	return s
}

// Symmetric reports whether M equals its transpose exactly. A Gram
// product, and a patch of one that writes every dirty row's mirror into
// its column (see PatchCtx), is symmetric by construction and answers
// at once; any other matrix is checked by an O(nnz) pass (see
// transposeOf).
func (m *Matrix) Symmetric() bool {
	return m.sym || transposeOf(m, m)
}

// transposeOf reports whether b equals aᵀ exactly: the same pattern and
// equal values. One O(nnz) pass: visiting a's rows in ascending order
// meets each column c's entries in ascending row order, which for
// b = aᵀ is row c's own stored order in b, so one cursor per row of b
// pairs every entry of a with its mirror.
func transposeOf(a, b *Matrix) bool {
	if a.rows != b.cols || a.cols != b.rows || len(a.vals) != len(b.vals) {
		return false
	}
	aPtr, aIdx, aVals := a.rowPtr, a.colIdx, a.vals
	bPtr, bIdx, bVals := b.rowPtr, b.colIdx, b.vals
	next := append([]int(nil), bPtr[:b.rows]...)
	for r := 0; r < a.rows; r++ {
		lo, hi := aPtr[r], aPtr[r+1]
		vs := aVals[lo:hi]
		for k, c := range aIdx[lo:hi] {
			j := next[c]
			if j == bPtr[c+1] || bIdx[j] != int32(r) || bVals[j] != vs[k] {
				return false
			}
			next[c]++
		}
	}
	return true
}

// RowInvSums returns the inverse row sums: inv[r] = 1/RowSum(r), with
// rows summing to zero mapped to 1 so that scaling by inv reproduces
// RowNormalized's leave-zero-rows-alone contract. Feed the result to
// MulVecNorm / MulVecTNorm to run row-stochastic iterations without
// materializing the normalized matrix.
func (m *Matrix) RowInvSums() []float64 {
	inv := make([]float64, m.rows)
	for r := 0; r < m.rows; r++ {
		if s := m.RowSum(r); s != 0 {
			inv[r] = 1 / s
		} else {
			inv[r] = 1
		}
	}
	return inv
}

// MulVec computes y = M x. It panics on dimension mismatch; y is
// allocated when nil, otherwise reused (len must equal Rows). Large
// matrices are processed in parallel row blocks; because each y[r] is
// accumulated by exactly one worker in the serial order, the result is
// bitwise identical to the serial loop.
func (m *Matrix) MulVec(x, y []float64) []float64 {
	return m.mulVecDispatch(x, nil, y)
}

// MulVecNorm computes y = diag(inv)·M·x — a fused row-scaled mat-vec.
// With inv = RowInvSums() this is exactly RowNormalized().MulVec(x, y)
// (bitwise: each product term is (val·inv[r])·x[c] in the same order)
// without ever materializing the normalized value array.
func (m *Matrix) MulVecNorm(x, inv, y []float64) []float64 {
	if len(inv) != m.rows {
		panic("sparse: MulVecNorm inv length mismatch")
	}
	return m.mulVecDispatch(x, inv, y)
}

func (m *Matrix) mulVecDispatch(x, inv, y []float64) []float64 {
	if len(x) != m.cols {
		panic("sparse: MulVec dimension mismatch")
	}
	if y == nil {
		y = make([]float64, m.rows)
	} else if len(y) != m.rows {
		panic("sparse: MulVec output length mismatch")
	}
	// The serial path calls the row loop directly: a closure handed to
	// the pool escapes, and would cost an iterative caller one allocation
	// per product.
	if splitBlocks(m.rows, len(m.vals)) == 1 {
		m.mulVecRange(x, inv, y, 0, m.rows)
		return y
	}
	m.forRowBlocks(len(m.vals), func(lo, hi int) { m.mulVecRange(x, inv, y, lo, hi) })
	return y
}

// mulVecRange computes rows [lo, hi) of M x (row-scaled by inv when
// non-nil) into y. The CSR arrays are read through locals and each row
// is sliced once, so the inner loops reload nothing through the receiver
// and bounds-check only x; the summation order is the plain row loop's.
func (m *Matrix) mulVecRange(x, inv, y []float64, lo, hi int) {
	rowPtr, colIdx, vals := m.rowPtr, m.colIdx, m.vals
	switch {
	case m.unit && inv == nil:
		// Pattern-only loop: all values are 1, skip the value array.
		for r := lo; r < hi; r++ {
			s := 0.0
			for _, c := range colIdx[rowPtr[r]:rowPtr[r+1]] {
				s += x[c]
			}
			y[r] = s
		}
	case m.unit:
		for r := lo; r < hi; r++ {
			xi := inv[r]
			s := 0.0
			for _, c := range colIdx[rowPtr[r]:rowPtr[r+1]] {
				s += xi * x[c]
			}
			y[r] = s
		}
	case inv == nil:
		for r := lo; r < hi; r++ {
			rlo, rhi := rowPtr[r], rowPtr[r+1]
			cs, vs := colIdx[rlo:rhi], vals[rlo:rhi]
			s := 0.0
			for i, c := range cs {
				s += vs[i] * x[c]
			}
			y[r] = s
		}
	default:
		for r := lo; r < hi; r++ {
			rlo, rhi := rowPtr[r], rowPtr[r+1]
			cs, vs := colIdx[rlo:rhi], vals[rlo:rhi]
			xi := inv[r]
			s := 0.0
			for i, c := range cs {
				s += (vs[i] * xi) * x[c]
			}
			y[r] = s
		}
	}
}

// MulVecT computes y = Mᵀ x without materializing the transpose. The
// parallel path scatters each row block into a private accumulator and
// combines the accumulators in block order, so results are reproducible
// for a fixed Parallelism setting (rounding may differ from the serial
// order by ~1 ulp per combine).
func (m *Matrix) MulVecT(x, y []float64) []float64 {
	return m.mulVecTDispatch(x, nil, y)
}

// MulVecTNorm computes y = (diag(inv)·M)ᵀ x — the transposed fused
// row-scaled mat-vec. With inv = RowInvSums() this is exactly
// RowNormalized().MulVecT(x, y) (bitwise per scattered term), which is
// what lets PageRank-style power iterations drop the row-stochastic
// matrix copy entirely.
func (m *Matrix) MulVecTNorm(x, inv, y []float64) []float64 {
	if len(inv) != m.rows {
		panic("sparse: MulVecTNorm inv length mismatch")
	}
	return m.mulVecTDispatch(x, inv, y)
}

func (m *Matrix) mulVecTDispatch(x, inv, y []float64) []float64 {
	if len(x) != m.rows {
		panic("sparse: MulVecT dimension mismatch")
	}
	if y == nil {
		y = make([]float64, m.cols)
	} else if len(y) != m.cols {
		panic("sparse: MulVecT output length mismatch")
	}
	// Each parallel block scatters into a cols-sized accumulator of its
	// own (recycled via scratchPool), combined below.
	blocks := scratchBlocks(m.rows, len(m.vals), m.cols)
	if blocks == 1 {
		m.mulVecTRange(x, inv, y, 0, m.rows, true)
		return y
	}
	bounds := m.rowBlockBounds(blocks)
	partial := make([]*[]float64, blocks)
	runTasks(blocks, func(b int) {
		buf := getScratch(m.cols)
		m.mulVecTRange(x, inv, *buf, bounds[b], bounds[b+1], false)
		partial[b] = buf
	})
	ParRange(m.cols, blocks*m.cols, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			s := 0.0
			for _, buf := range partial {
				s += (*buf)[c]
			}
			y[c] = s
		}
	})
	for _, buf := range partial {
		putScratch(buf)
	}
	return y
}

// mulVecTRange accumulates rows [lo, hi) of Mᵀ x (row-scaled by inv
// when non-nil) into y; when zero is set, y is cleared first. Unlike
// mulVecRange it indexes the CSR through the receiver: each step is a
// read-modify-write at a scattered column of y, and reading the arrays
// through locals and row slices measured a few percent slower here
// (BenchmarkCoauthorMatVec).
func (m *Matrix) mulVecTRange(x, inv, y []float64, lo, hi int, zero bool) {
	if zero {
		for i := range y {
			y[i] = 0
		}
	}
	for r := lo; r < hi; r++ {
		xr := x[r]
		if xr == 0 {
			continue
		}
		rlo, rhi := m.rowPtr[r], m.rowPtr[r+1]
		switch {
		case m.unit && inv == nil:
			for i := rlo; i < rhi; i++ {
				y[m.colIdx[i]] += xr
			}
		case m.unit:
			z := inv[r] * xr
			for i := rlo; i < rhi; i++ {
				y[m.colIdx[i]] += z
			}
		case inv == nil:
			for i := rlo; i < rhi; i++ {
				y[m.colIdx[i]] += m.vals[i] * xr
			}
		default:
			xi := inv[r]
			for i := rlo; i < rhi; i++ {
				y[m.colIdx[i]] += (m.vals[i] * xi) * xr
			}
		}
	}
}

// Transpose returns Mᵀ as a new CSR matrix. The parallel path runs the
// classic two-pass algorithm with per-block column counters: block b's
// entries for destination row c land at offset rowPtr[c] + Σ_{b'<b}
// counts[b'][c], which preserves the serial (source-row) order within
// every destination row — the output is bitwise identical to the serial
// path.
func (m *Matrix) Transpose() *Matrix {
	t := &Matrix{
		rows:   m.cols,
		cols:   m.rows,
		rowPtr: make([]int, m.cols+1),
		colIdx: make([]int32, len(m.colIdx)),
		vals:   make([]float64, len(m.vals)),
		unit:   m.unit, // a permutation of the same values
	}
	// Like MulVecT, every parallel block carries a cols-sized array (its
	// column counters).
	blocks := scratchBlocks(m.rows, len(m.vals), m.cols)
	if blocks == 1 {
		m.transposeSerial(t)
		return t
	}
	bounds := m.rowBlockBounds(blocks)
	counts := make([][]int, blocks)
	runTasks(blocks, func(b int) {
		cnt := make([]int, m.cols)
		for i := m.rowPtr[bounds[b]]; i < m.rowPtr[bounds[b+1]]; i++ {
			cnt[m.colIdx[i]]++
		}
		counts[b] = cnt
	})
	// One serial O(blocks·cols) pass builds the row pointer and turns
	// counts[b] into block b's write cursors in place.
	for c := 0; c < m.cols; c++ {
		off := t.rowPtr[c]
		for b := 0; b < blocks; b++ {
			n := counts[b][c]
			counts[b][c] = off
			off += n
		}
		t.rowPtr[c+1] = off
	}
	runTasks(blocks, func(b int) {
		next := counts[b]
		for r := bounds[b]; r < bounds[b+1]; r++ {
			for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
				c := m.colIdx[i]
				pos := next[c]
				next[c]++
				t.colIdx[pos] = int32(r)
				t.vals[pos] = m.vals[i]
			}
		}
	})
	return t
}

func (m *Matrix) transposeSerial(t *Matrix) {
	for _, c := range m.colIdx {
		t.rowPtr[c+1]++
	}
	for c := 0; c < m.cols; c++ {
		t.rowPtr[c+1] += t.rowPtr[c]
	}
	next := append([]int(nil), t.rowPtr[:m.cols]...)
	for r := 0; r < m.rows; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			c := m.colIdx[i]
			pos := next[c]
			next[c]++
			t.colIdx[pos] = int32(r)
			t.vals[pos] = m.vals[i]
		}
	}
}

// RowNormalized returns a copy of M whose rows each sum to 1 (rows that
// sum to zero are left all-zero). This is the row-stochastic transition
// matrix used by random-walk style rankings. The result aliases the
// receiver's immutable rowPtr/colIdx structure — only the value array
// is fresh. Each row is scaled by the reciprocal of its sum (one
// division per row, and the same product the fused MulVecNorm /
// MulVecTNorm kernels apply, keeping all normalization paths bitwise
// consistent; entries can differ from per-entry division by ≤ 1 ulp).
// Rows are normalized in parallel blocks; output is bitwise identical
// to the serial loop. Iterative consumers can skip even the value copy
// with the fused kernels.
func (m *Matrix) RowNormalized() *Matrix {
	n := &Matrix{
		rows:   m.rows,
		cols:   m.cols,
		rowPtr: m.rowPtr,
		colIdx: m.colIdx,
		vals:   make([]float64, len(m.vals)),
	}
	m.forRowBlocks(len(m.vals), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			s := m.RowSum(r)
			if s == 0 {
				copy(n.vals[m.rowPtr[r]:m.rowPtr[r+1]], m.vals[m.rowPtr[r]:m.rowPtr[r+1]])
				continue
			}
			inv := 1 / s
			for i := n.rowPtr[r]; i < n.rowPtr[r+1]; i++ {
				n.vals[i] = m.vals[i] * inv
			}
		}
	})
	n.unit = allOnes(n.vals)
	return n
}

// Scale returns a copy of M with every entry multiplied by f. The
// result aliases the receiver's immutable rowPtr/colIdx structure.
func (m *Matrix) Scale(f float64) *Matrix {
	n := &Matrix{
		rows:   m.rows,
		cols:   m.cols,
		rowPtr: m.rowPtr,
		colIdx: m.colIdx,
		vals:   make([]float64, len(m.vals)),
	}
	for i, v := range m.vals {
		n.vals[i] = v * f
	}
	n.unit = m.unit && f == 1 || allOnes(n.vals)
	return n
}

// mulPart is one row-block's slice of a sparse product.
type mulPart struct {
	colIdx []int32
	vals   []float64
	rowNNZ []int // per-row output counts for rows [lo, hi)
}

// mulRange computes rows [lo, hi) of M·B with a dense stamped
// accumulator (Gustavson's algorithm): O(flops) with no hashing, and
// the accumulation order per output entry matches the serial loop
// exactly, so parallel products are bitwise identical to serial ones.
// The accumulator/stamp/touched scratch comes from a process-wide pool
// (see spgemmScratch), so repeated products allocate nothing beyond
// their output.
func (m *Matrix) mulRange(b *Matrix, lo, hi int, done <-chan struct{}) mulPart {
	s := getSpgemm(b.cols, hi)
	acc, stamp := s.acc, s.stamp
	touched := s.touched[:0]
	base := s.base
	part := mulPart{rowNNZ: make([]int, hi-lo)}
	for r := lo; r < hi; r++ {
		// Cooperative cancellation checkpoint, every 64 rows so the
		// poll never shows up in kernel profiles. A cancelled call
		// returns a truncated part; the dispatcher (mul) detects the
		// closed channel and discards every part before assembly.
		if done != nil && (r-lo)&63 == 63 && checkpoint(done) {
			break
		}
		touched = touched[:0]
		mark := base + r + 1
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			mid := int(m.colIdx[i])
			mv := 1.0
			if !m.unit {
				mv = m.vals[i]
			}
			blo, bhi := b.rowPtr[mid], b.rowPtr[mid+1]
			if b.unit {
				// Pattern-only expansion: B's values are all 1.
				for j := blo; j < bhi; j++ {
					c := b.colIdx[j]
					if stamp[c] != mark {
						stamp[c] = mark
						acc[c] = 0
						touched = append(touched, c)
					}
					acc[c] += mv
				}
			} else {
				for j := blo; j < bhi; j++ {
					c := b.colIdx[j]
					if stamp[c] != mark {
						stamp[c] = mark
						acc[c] = 0
						touched = append(touched, c)
					}
					acc[c] += mv * b.vals[j]
				}
			}
		}
		part.emit(touched, acc, stamp, mark, 0, b.cols, r-lo)
	}
	s.touched = touched
	putSpgemm(s, hi)
	return part
}

// emit appends row row's accumulated entries in ascending column
// order. Sparse rows sort their touched list; dense rows (over a
// quarter of the candidate span) skip the sort and scan the stamp
// array sequentially instead — same output order, branch-predictable,
// and it removes the dominant per-row sort from dense products.
func (part *mulPart) emit(touched []int32, acc []float64, stamp []int, mark, span0, span1, row int) {
	if len(touched)*4 >= span1-span0 {
		for c := span0; c < span1; c++ {
			if stamp[c] == mark && acc[c] != 0 {
				part.colIdx = append(part.colIdx, int32(c))
				part.vals = append(part.vals, acc[c])
				part.rowNNZ[row]++
			}
		}
		return
	}
	slices.Sort(touched)
	for _, c := range touched {
		if acc[c] != 0 {
			part.colIdx = append(part.colIdx, c)
			part.vals = append(part.vals, acc[c])
			part.rowNNZ[row]++
		}
	}
}

// MulCtx returns the sparse product M·B. Dimensions must agree. Row
// blocks of the output are computed independently on the worker pool
// and stitched together in row order. Row-block loops poll ctx: a
// cancelled product stops burning CPU (already-dispatched blocks finish
// their current 64-row stride) and returns ctx.Err() with a nil matrix.
// Under a context that is never cancelled it cannot fail.
func (m *Matrix) MulCtx(ctx context.Context, b *Matrix) (*Matrix, error) {
	done := ctxDone(ctx)
	if done != nil && chanClosed(done) {
		return nil, ctx.Err()
	}
	out, aborted := m.mul(b, done)
	if aborted {
		return nil, ctx.Err()
	}
	return out, nil
}

func (m *Matrix) mul(b *Matrix, done <-chan struct{}) (*Matrix, bool) {
	if m.cols != b.rows {
		panic("sparse: MulCtx dimension mismatch")
	}
	out := &Matrix{rows: m.rows, cols: b.cols, rowPtr: make([]int, m.rows+1)}
	// Estimated flops: every nonzero of M expands into one of B's rows.
	work := 0
	if b.rows > 0 {
		work = len(m.vals) * (1 + len(b.vals)/b.rows)
	}
	// Each parallel block holds cols-sized dense scratch for the length
	// of its mulRange call.
	blocks := scratchBlocks(m.rows, work, b.cols)
	bounds := []int{0, m.rows}
	if blocks > 1 {
		bounds = m.rowBlockBounds(blocks)
	}
	parts := make([]mulPart, blocks)
	runTasks(blocks, func(bk int) {
		if chanClosed(done) {
			return
		}
		parts[bk] = m.mulRange(b, bounds[bk], bounds[bk+1], done)
	})
	if chanClosed(done) {
		return nil, true
	}
	// The parts' arrays grew by append; the result — which the meta-path
	// engine retains — is copied to its exact size, one block or many.
	total := 0
	for _, p := range parts {
		total += len(p.vals)
	}
	out.colIdx = make([]int32, total)
	out.vals = make([]float64, total)
	off := 0
	offsets := make([]int, blocks)
	for bk, p := range parts {
		offsets[bk] = off
		for i, n := range p.rowNNZ {
			r := bounds[bk] + i
			out.rowPtr[r+1] = out.rowPtr[r] + n
		}
		off += len(p.vals)
	}
	runTasks(blocks, func(bk int) {
		copy(out.colIdx[offsets[bk]:], parts[bk].colIdx)
		copy(out.vals[offsets[bk]:], parts[bk].vals)
	})
	out.unit = allOnes(out.vals)
	return out, false
}

// gramRange computes the upper-triangle entries (col ≥ row) of rows
// [lo, hi) of M·Mᵀ, given t = Mᵀ. It is Gustavson's algorithm with one
// twist: each scattered row of t is entered at the first column ≥ r
// (binary search over the sorted column indices), so strictly-lower
// entries are never touched — about half the multiply work of a full
// product. Accumulation order per output entry matches the serial loop,
// so parallel Grams are bitwise identical to serial ones. Scratch is
// pooled like mulRange's.
func (m *Matrix) gramRange(t *Matrix, lo, hi int, done <-chan struct{}) mulPart {
	s := getSpgemm(t.cols, hi)
	acc, stamp := s.acc, s.stamp
	touched := s.touched[:0]
	base := s.base
	part := mulPart{rowNNZ: make([]int, hi-lo)}
	for r := lo; r < hi; r++ {
		// Same cancellation checkpoint as mulRange: truncated parts are
		// discarded by gram before assembly.
		if done != nil && (r-lo)&63 == 63 && checkpoint(done) {
			break
		}
		touched = touched[:0]
		mark := base + r + 1
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			mid := int(m.colIdx[i])
			mv := 1.0
			if !m.unit {
				mv = m.vals[i]
			}
			tlo, thi := t.rowPtr[mid], t.rowPtr[mid+1]
			j, _ := slices.BinarySearch(t.colIdx[tlo:thi], int32(r))
			j += tlo
			if t.unit {
				for ; j < thi; j++ {
					c := t.colIdx[j]
					if stamp[c] != mark {
						stamp[c] = mark
						acc[c] = 0
						touched = append(touched, c)
					}
					acc[c] += mv
				}
			} else {
				for ; j < thi; j++ {
					c := t.colIdx[j]
					if stamp[c] != mark {
						stamp[c] = mark
						acc[c] = 0
						touched = append(touched, c)
					}
					acc[c] += mv * t.vals[j]
				}
			}
		}
		// Upper-triangle rows only hold columns ≥ r, so the dense scan
		// (inside emit) starts there.
		part.emit(touched, acc, stamp, mark, r, t.cols, r-lo)
	}
	s.touched = touched
	putSpgemm(s, hi)
	return part
}

// gramBlockBounds splits the rows into at most `blocks` contiguous
// ranges balanced by estimated upper-triangle work: row r's scatter
// only touches columns ≥ r, so its cost shrinks with the row index —
// weighting by nnz(r)·(rows−r) instead of raw nnz keeps the early
// (heavy) rows from landing in one block.
func (m *Matrix) gramBlockBounds(blocks int) []int {
	total := 0.0
	for r := 0; r < m.rows; r++ {
		total += float64(m.rowPtr[r+1]-m.rowPtr[r]) * float64(m.rows-r)
	}
	bounds := make([]int, blocks+1)
	cum := 0.0
	b := 1
	for r := 0; r < m.rows && b < blocks; r++ {
		cum += float64(m.rowPtr[r+1]-m.rowPtr[r]) * float64(m.rows-r)
		for b < blocks && cum >= total*float64(b)/float64(blocks) {
			bounds[b] = r + 1
			b++
		}
	}
	for ; b < blocks; b++ {
		bounds[b] = m.rows
	}
	bounds[blocks] = m.rows
	return bounds
}

// GramCtx returns the Gram product G = M·Mᵀ. The result is symmetric by
// construction: only the upper triangle is computed (halving the
// multiply work versus MulCtx(Transpose())) and the strict-lower triangle
// is mirrored from it, so G[i][j] and G[j][i] are the same float64, and
// Symmetric says so without a scan. This is the fused kernel the
// meta-path engine uses to evaluate a symmetric path from its half-path
// product. Upper-triangle row blocks run in parallel on the shared
// worker pool. Cancellation is cooperative, mirroring MulCtx: a
// cancelled factorization returns ctx.Err() with a nil matrix.
func (m *Matrix) GramCtx(ctx context.Context) (*Matrix, error) {
	done := ctxDone(ctx)
	if done != nil && chanClosed(done) {
		return nil, ctx.Err()
	}
	out, aborted := m.gram(done)
	if aborted {
		return nil, ctx.Err()
	}
	return out, nil
}

func (m *Matrix) gram(done <-chan struct{}) (*Matrix, bool) {
	t := m.Transpose()
	out := &Matrix{rows: m.rows, cols: m.rows, rowPtr: make([]int, m.rows+1)}
	// Estimated flops: every nonzero expands into one of t's rows, and
	// the triangle restriction halves that.
	work := 0
	if m.cols > 0 {
		work = len(m.vals) * (1 + len(m.vals)/m.cols) / 2
	}
	var parts []mulPart
	var bounds []int
	if blocks := scratchBlocks(m.rows, work, m.rows); blocks == 1 {
		parts = []mulPart{m.gramRange(t, 0, m.rows, done)}
		bounds = []int{0, m.rows}
	} else {
		// Each block carries rows-sized dense scratch, like MulCtx's, and
		// they are balanced by triangle work rather than raw nnz.
		bounds = m.gramBlockBounds(blocks)
		parts = make([]mulPart, blocks)
		runTasks(blocks, func(bk int) {
			if chanClosed(done) {
				return
			}
			parts[bk] = m.gramRange(t, bounds[bk], bounds[bk+1], done)
		})
	}
	if chanClosed(done) {
		return nil, true
	}
	// Assemble the full symmetric CSR from the upper parts. Pass one
	// counts row populations: each upper entry (r, c) lands in row r,
	// and strictly-upper ones mirror into row c.
	for bk, p := range parts {
		idx := 0
		for i, n := range p.rowNNZ {
			r := bounds[bk] + i
			out.rowPtr[r+1] += n
			for e := 0; e < n; e++ {
				if int(p.colIdx[idx]) > r {
					out.rowPtr[p.colIdx[idx]+1]++
				}
				idx++
			}
		}
	}
	for r := 0; r < m.rows; r++ {
		out.rowPtr[r+1] += out.rowPtr[r]
	}
	total := out.rowPtr[m.rows]
	out.colIdx = make([]int32, total)
	out.vals = make([]float64, total)
	next := append([]int(nil), out.rowPtr[:m.rows]...)
	// Pass two fills rows in source order. Processing upper rows in
	// ascending order keeps every output row sorted: the mirrors into
	// row c (columns = source rows < c, ascending) are all written
	// before row c's own upper entries (columns ≥ c, ascending).
	for bk, p := range parts {
		idx := 0
		for i, n := range p.rowNNZ {
			r := bounds[bk] + i
			for e := 0; e < n; e++ {
				c, v := p.colIdx[idx], p.vals[idx]
				out.colIdx[next[r]] = c
				out.vals[next[r]] = v
				next[r]++
				if int(c) > r {
					out.colIdx[next[c]] = int32(r)
					out.vals[next[c]] = v
					next[c]++
				}
				idx++
			}
		}
	}
	out.unit = allOnes(out.vals)
	out.sym = true
	return out, false
}

// ColSlice returns the sub-matrix of columns [lo, hi), rebased to start
// at column zero. Each output row preserves the source row's ascending
// column order and its exact float64 values, so scanning a sliced row
// visits precisely the source entries with lo ≤ col < hi — the property
// the sharded PathSim tier relies on for bitwise-identical partial
// top-k answers. O(rows·log nnz/row + output nnz).
func (m *Matrix) ColSlice(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > m.cols {
		panic(fmt.Sprintf("sparse: ColSlice [%d,%d) out of %d cols", lo, hi, m.cols))
	}
	out := &Matrix{rows: m.rows, cols: hi - lo, rowPtr: make([]int, m.rows+1)}
	starts := make([]int, m.rows)
	for r := 0; r < m.rows; r++ {
		rlo, rhi := m.rowPtr[r], m.rowPtr[r+1]
		a, _ := slices.BinarySearch(m.colIdx[rlo:rhi], int32(lo))
		b, _ := slices.BinarySearch(m.colIdx[rlo:rhi], int32(hi))
		starts[r] = rlo + a
		out.rowPtr[r+1] = out.rowPtr[r] + (b - a)
	}
	total := out.rowPtr[m.rows]
	out.colIdx = make([]int32, total)
	out.vals = make([]float64, total)
	for r := 0; r < m.rows; r++ {
		n := out.rowPtr[r+1] - out.rowPtr[r]
		for i := 0; i < n; i++ {
			out.colIdx[out.rowPtr[r]+i] = m.colIdx[starts[r]+i] - int32(lo)
		}
		copy(out.vals[out.rowPtr[r]:out.rowPtr[r+1]], m.vals[starts[r]:starts[r]+n])
	}
	out.unit = m.unit || allOnes(out.vals)
	return out
}

// GramDiagonal returns the diagonal of M·Mᵀ — per-row sums of squared
// values — without materializing the product. Each row's sum runs over
// the stored entries in ascending-column order, exactly the
// accumulation sequence the fused Gram kernel uses for its (i, i)
// entries, so the result is bitwise identical to the diagonal GramCtx
// computes. The sharded tier uses this to hand every shard the full
// PathSim denominator vector at O(nnz) cost.
func (m *Matrix) GramDiagonal() []float64 {
	d := make([]float64, m.rows)
	for r := 0; r < m.rows; r++ {
		s := 0.0
		if m.unit {
			// The Gram kernel's pattern-only loop adds 1.0 per entry.
			for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
				s += 1.0
			}
		} else {
			for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
				v := m.vals[i]
				s += v * v
			}
		}
		d[r] = s
	}
	return d
}

// Dense materializes the matrix as row-major [][]float64 (test helper;
// avoid on large matrices).
func (m *Matrix) Dense() [][]float64 {
	d := make([][]float64, m.rows)
	for r := range d {
		d[r] = make([]float64, m.cols)
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			d[r][m.colIdx[i]] = m.vals[i]
		}
	}
	return d
}

// Diagonal returns the main diagonal as a dense vector.
func (m *Matrix) Diagonal() []float64 {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	d := make([]float64, n)
	for i := range d {
		d[i] = m.At(i, i)
	}
	return d
}

// Dot returns the inner product of two equal-length dense vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("sparse: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// AXPY computes y += a*x in place. Element-wise, so the parallel path
// is bitwise identical to the serial one.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("sparse: AXPY length mismatch")
	}
	ParRange(len(x), len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] += a * x[i]
		}
	})
}

// ScaleVec multiplies v by a in place.
func ScaleVec(a float64, v []float64) {
	ParRange(len(v), len(v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v[i] *= a
		}
	})
}

// MaxAbsDiff returns max_i |a_i - b_i|, the convergence test used by the
// fixed-point iterations. Max is order-independent, so the parallel
// reduction is exact.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("sparse: MaxAbsDiff length mismatch")
	}
	return ParReduceMax(len(a), len(a), func(lo, hi int) float64 {
		m := 0.0
		for i := lo; i < hi; i++ {
			d := math.Abs(a[i] - b[i])
			if d > m {
				m = d
			}
		}
		return m
	})
}
