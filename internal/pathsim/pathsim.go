// Package pathsim implements PathSim (Sun et al., cited in the tutorial
// as the top-k similarity frontier, §7b): meta-path-based similarity in
// heterogeneous information networks. For a symmetric meta path P (e.g.
// author–paper–venue–paper–author), with commuting matrix M = W_P:
//
//	s(x, y) = 2·M[x][y] / (M[x][x] + M[y][y])
//
// PathSim favors *peers* — objects that are both strongly connected and
// of comparable visibility — where random-walk measures (Personalized
// PageRank) drift toward high-degree hubs and SimRank toward obscure
// low-degree look-alikes. TopK answers single-source queries.
package pathsim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"hinet/internal/hin"
	"hinet/internal/sparse"
)

// Index is a prepared PathSim index for one symmetric meta path over
// the candidate range [Lo, Hi) of the path's endpoint type: columns
// [Lo, Hi) of the commuting matrix plus its full diagonal. It answers
// queries for ANY object x, restricted to the candidates it owns; the
// full index is simply the range [0, Dim), and a shard of the serving
// tier (internal/cluster) holds a narrower one. A narrower range carries
// the exact float64 entries of the full matrix (sparse.Matrix.ColSlice
// preserves values; the engine's range build reproduces them bitwise,
// see metapath.Engine.CommuteColsCtx), so its answers are the full
// index's answers filtered to the range and MergeTopK reassembles the
// global answer exactly.
//
// Build it once (the commuting matrix product is the expensive part)
// and answer any number of Sim / TopK / BatchTopKCtx queries against it
// concurrently — all query methods are read-only, so an Index is safe
// for unsynchronized sharing.
//
// An index a write refreshed may hold its columns as base + overlay
// (NewRangeIndexCtx): the previous generation's matrix, shared by
// pointer, and the few rows and columns the write changed. A query then
// merges its one row from the two as it scores it (topKSpliced), and
// scores exactly the entries — ids, order, value bits — the applied
// patch would have stored, so every answer is the same; M is nil on
// such an index.
type Index struct {
	Path   hin.MetaPath
	M      *sparse.Matrix // Dim × (Hi-Lo): columns [Lo, Hi) of the commuting matrix; nil when over holds them
	over   *sparse.View   // the columns as base + overlay, or nil
	diag   []float64      // full diagonal (PathSim denominators for every object)
	lo, hi int
}

// Dim returns the number of objects the path's endpoint type has — the
// valid query-id range, which is NOT restricted to [Lo, Hi).
func (ix *Index) Dim() int {
	if ix.over != nil {
		return ix.over.Rows()
	}
	return ix.M.Rows()
}

// NNZ returns the stored nonzeros of the index — the memory and scan
// cost it pays to make queries row-local (and, for a shard's range, the
// partition-skew signal). Exact and O(1), overlay or not.
func (ix *Index) NNZ() int {
	if ix.over != nil {
		return ix.over.NNZ()
	}
	return ix.M.NNZ()
}

// RowNNZ returns the stored entries of row x: the candidates in
// [Lo, Hi) that share a path instance with x.
func (ix *Index) RowNNZ(x int) int {
	if ix.over != nil {
		return ix.over.RowNNZ(x)
	}
	return ix.M.RowNNZ(x)
}

// row returns row x's candidate columns (relative to Lo, ascending) and
// values, assembled: the matrix's own arrays, or a copy when the row had
// to be merged from base and overlay.
func (ix *Index) row(x int) ([]int32, []float64) {
	if ix.over == nil {
		return ix.M.RowEntries(x)
	}
	row := ix.over.Row(x)
	if !row.Spliced() {
		return row.Cols, row.Vals
	}
	return row.AppendTo(nil, nil)
}

// Lo returns the first candidate id the index owns.
func (ix *Index) Lo() int { return ix.lo }

// Hi returns one past the last candidate id the index owns.
func (ix *Index) Hi() int { return ix.hi }

// Rows returns the number of candidate objects the index owns.
func (ix *Index) Rows() int { return ix.hi - ix.lo }

// NewIndex builds the commuting matrix for a symmetric meta path via
// the network's meta-path engine (planned order, Gram factorization,
// cached intermediates). It panics on invalid paths; NewIndexE returns
// an error instead.
func NewIndex(n *hin.Network, path hin.MetaPath) *Index {
	ix, err := NewIndexE(n, path)
	if err != nil {
		panic("pathsim: " + err.Error())
	}
	return ix
}

// NewIndexE is the non-panicking NewIndex: the constructor the serving
// layer uses to turn client-supplied meta-paths into indexes (or 400s).
func NewIndexE(n *hin.Network, path hin.MetaPath) (*Index, error) {
	return NewIndexCtx(context.Background(), n, path)
}

// ValidatePath checks that a meta path can back a PathSim index:
// symmetric (the similarity definition needs M[x][x] diagonals on one
// object type) and at least three types long. Exported so the serving
// tier validates client paths identically whether or not it builds an
// index locally — the error text is part of the HTTP contract the
// replay harness digests.
func ValidatePath(path hin.MetaPath) error {
	if !path.Symmetric() || len(path) < 3 {
		return fmt.Errorf("meta path must be symmetric with length >= 3, got %q", path.String())
	}
	return nil
}

// NewIndexCtx is NewIndexE with cooperative cancellation threaded into
// the commuting-matrix materialization: a dead caller (deadline hit,
// client gone) stops the SpGEMM chain at its next row-block checkpoint
// and gets ctx.Err() back.
func NewIndexCtx(ctx context.Context, n *hin.Network, path hin.MetaPath) (*Index, error) {
	if err := ValidatePath(path); err != nil {
		return nil, err
	}
	m, err := n.CommutingMatrixCtx(ctx, path)
	if err != nil {
		return nil, err
	}
	return &Index{Path: path, M: m, diag: m.Diagonal(), hi: m.Rows()}, nil
}

// NewRangeIndexCtx builds the [lo, hi) range of a PathSim index over a
// symmetric meta path without materializing the full commuting matrix
// for Gram-factorable paths (the common case): the engine multiplies
// the cached half-path product against its own row slice and derives
// the full diagonal from per-row norms. Entries are bitwise-identical
// to slicing a full NewIndexCtx build, and [0, Dim) is that build. This
// is the serving constructor, and the one that takes the engine's
// deferred form: over a network that was mutated since the range was
// last built, the index comes back as base + overlay instead of a fresh
// copy of every column (see Index).
func NewRangeIndexCtx(ctx context.Context, n *hin.Network, path hin.MetaPath, lo, hi int) (*Index, error) {
	if err := ValidatePath(path); err != nil {
		return nil, err
	}
	cols, diag, err := n.CommutingViewCtx(ctx, path, lo, hi)
	if err != nil {
		return nil, err
	}
	ix := &Index{Path: path, M: cols.Plain(), diag: diag, lo: lo, hi: hi}
	if ix.M == nil {
		ix.over = cols
	}
	return ix, nil
}

// Range narrows the index to the candidate range [lo, hi), which must
// lie inside its own — the reference constructor the equivalence tests
// compare the engine-built ranges against, and the cheap path when a
// wider index already exists. The diagonal is shared (it is immutable).
// An index held as base + overlay has no matrix to slice: build the
// range with NewRangeIndexCtx.
func (ix *Index) Range(lo, hi int) (*Index, error) {
	if lo < ix.lo || hi < lo || hi > ix.hi {
		return nil, fmt.Errorf("range [%d,%d) out of [%d,%d)", lo, hi, ix.lo, ix.hi)
	}
	if ix.over != nil {
		return nil, fmt.Errorf("range [%d,%d) of an index held as base + overlay", lo, hi)
	}
	return &Index{Path: ix.Path, M: ix.M.ColSlice(lo-ix.lo, hi-ix.lo), diag: ix.diag, lo: lo, hi: hi}, nil
}

// inRange reports whether x is a valid query id for this index. Query
// methods treat out-of-range ids as "no results" rather than panicking,
// so a stray client id can never take down a serving process.
func (ix *Index) inRange(x int) bool { return x >= 0 && x < ix.Dim() }

// Sim returns the PathSim score s(x, y) ∈ [0, 1] for a candidate y in
// [Lo, Hi). Out-of-range ids (either side) score 0.
func (ix *Index) Sim(x, y int) float64 {
	if !ix.inRange(x) || y < ix.lo || y >= ix.hi {
		return 0
	}
	den := ix.diag[x] + ix.diag[y]
	if den == 0 {
		return 0
	}
	if ix.over != nil {
		return 2 * ix.over.At(x, y-ix.lo) / den
	}
	return 2 * ix.M.At(x, y-ix.lo) / den
}

// Pair is a scored query answer.
type Pair struct {
	ID    int
	Score float64
}

// topKInto is TopK with caller-supplied scratch, writing its result into
// dst's backing array: one pass scores the candidates of row x into s,
// then s selects (selection.topK). A narrower range scores exactly the
// full row-scan's entries with Lo ≤ y < Hi, in the same ascending-id
// order and with the same float64 scores, so its result is the full
// answer filtered to the range.
func (ix *Index) topKInto(s *selection, x, k int, dst []Pair) []Pair {
	if !ix.inRange(x) || k <= 0 {
		return nil
	}
	var cols []int32
	var vals []float64
	if ix.over == nil {
		cols, vals = ix.M.RowEntries(x)
	} else {
		row := ix.over.Row(x)
		if row.Spliced() {
			return ix.topKSpliced(s, x, k, dst, &row)
		}
		cols, vals = row.Cols, row.Vals // one stored row: the base's, or the overlay's in its place
	}
	s.reset(len(cols))
	dx := ix.diag[x]
	for i, c := range cols {
		y, v := ix.lo+int(c), vals[i]
		if y == x || v == 0 {
			continue
		}
		den := dx + ix.diag[y]
		if den == 0 {
			continue
		}
		s.add(y, 2*v/den)
	}
	return s.topK(k, dst)
}

// topKSpliced is topKInto for a row the overlay reaches into: the same
// pass over the same candidates in the same ascending-id order, except
// that the row is merged as it is scored — the stored entries outside
// the patched columns, the overlay's entries in them — instead of being
// assembled first. (The scoring is written out twice: a call per
// candidate costs more than the merge does.)
func (ix *Index) topKSpliced(s *selection, x, k int, dst []Pair, row *sparse.Row) []Pair {
	cols, vals := row.Cols, row.Vals[:len(row.Cols)]
	s.reset(len(cols) + len(row.OverCols))
	dx := ix.diag[x]
	pos := 0
	for j := 0; ; j++ {
		// Stored entries up to the overlay's next, then that one.
		next := int32(math.MaxInt32)
		if j < len(row.OverCols) {
			next = row.OverCols[j]
		}
		for ; pos < len(cols) && cols[pos] < next; pos++ {
			c := cols[pos]
			y, v := ix.lo+int(c), vals[pos]
			if row.Superseded(c) || y == x || v == 0 {
				continue
			}
			den := dx + ix.diag[y]
			if den == 0 {
				continue
			}
			s.add(y, 2*v/den)
		}
		if j == len(row.OverCols) {
			return s.topK(k, dst)
		}
		y, v := ix.lo+int(next), row.OverVals[j]
		if y == x || v == 0 {
			continue
		}
		den := dx + ix.diag[y]
		if den == 0 {
			continue
		}
		s.add(y, 2*v/den)
	}
}

// TopK returns the k most PathSim-similar candidates to x among
// [Lo, Hi) (excluding x), global ids, descending, ties by id. Only
// objects sharing at least one path instance with x can score above 0,
// so the scan touches just row x, and a threshold selection picks the k
// best without sorting the whole row. An out-of-range x returns no
// results.
func (ix *Index) TopK(x, k int) []Pair {
	s := getSelection()
	defer putSelection(s)
	return ix.topKInto(s, x, k, nil)
}

// BatchTopKCtx answers one TopK query per entry of xs, fanning the
// queries out over the shared sparse worker pool. Queries only read the
// immutable commuting matrix, so they parallelize perfectly; this is
// the bulk entry point for serving many similarity queries at once.
// All result slices are carved from one arena sized by each query's
// true result bound — min(k, row population) — so a client-supplied
// huge k cannot inflate the batch beyond its actual result mass, and
// each block of queries shares one pooled selection scratch: a batch
// performs O(1) allocations regardless of batch size or row
// population. (Result slices therefore share one backing array; copy a
// slice before retaining it long-term, or the whole batch's arena
// stays reachable.) The work estimate is the per-query cost — a few
// passes over the row population m plus the k·log k sort of the
// survivors — not just the row scan, so medium batches of dense-row
// queries cross the pool's serial threshold as their real cost
// warrants. Out-of-range entries of xs yield empty result slices, like
// TopK.
//
// The fan-out polls ctx between blocks (sparse.ParRangeCtx), so a batch
// whose callers have all given up stops burning pool workers. On
// cancellation it returns ctx.Err() and no results.
func (ix *Index) BatchTopKCtx(ctx context.Context, xs []int, k int) ([][]Pair, error) {
	out := make([][]Pair, len(xs))
	rows := ix.Dim()
	if k <= 0 || rows == 0 || ix.Rows() == 0 {
		return out, nil
	}
	offsets := make([]int, len(xs)+1)
	for i, x := range xs {
		need := 0
		if x >= 0 && x < rows {
			if ix.over != nil {
				need = ix.over.RowCap(x) // a bound is enough, and does not walk the row
			} else {
				need = ix.M.RowNNZ(x)
			}
			need = min(need, k)
		}
		offsets[i+1] = offsets[i] + need
	}
	arena := make([]Pair, offsets[len(xs)])
	m := 1 + ix.NNZ()/rows
	kept := min(k, m)
	perQuery := 4*m + kept*bits.Len(uint(kept))
	err := sparse.ParRangeCtx(ctx, len(xs), len(xs)*perQuery, func(lo, hi int) {
		s := getSelection()
		for i := lo; i < hi; i++ {
			out[i] = ix.topKInto(s, xs[i], k, arena[offsets[i]:offsets[i]:offsets[i+1]])
		}
		putSelection(s)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AllScores materializes the similarity row of x (dense over every
// object; candidates outside [Lo, Hi) score 0), useful for metric
// comparison against baselines. An out-of-range x returns nil.
func (ix *Index) AllScores(x int) []float64 {
	if !ix.inRange(x) {
		return nil
	}
	scores := make([]float64, ix.Dim())
	cols, vals := ix.row(x)
	for i, c := range cols {
		y := ix.lo + int(c)
		den := ix.diag[x] + ix.diag[y]
		if den > 0 {
			scores[y] = 2 * vals[i] / den
		}
	}
	if x >= ix.lo && x < ix.hi {
		scores[x] = 1
	}
	return scores
}

// MergeTopK merges per-range partial top-k lists into the global
// top-k, writing into dst's backing array (allocating only when it is
// too small). Every part must already be in top-k order — TopK,
// BatchTopKCtx, a shard's Rank and MergeTopK itself all return theirs
// that way; builds with the race detector on check it and panic — so
// this is a k-way merge: each output pair is the best of the parts'
// heads, at most len(parts)·k comparisons, the parts left untouched.
// Any global top-k member ranks within the top k of its own range, so
// as long as every partial was selected with the same k over disjoint
// covering ranges, the merge reproduces a single-index TopK exactly —
// scores bitwise, tie order included (the order is strict and total,
// and partial scores are float64-identical to full-scan scores). A
// single part is already that answer and is returned as is (cut to k),
// not copied.
func MergeTopK(parts [][]Pair, k int, dst []Pair) []Pair {
	if len(parts) == 1 {
		return parts[0][:min(len(parts[0]), max(k, 0))]
	}
	n := 0
	for i, part := range parts {
		if raceEnabled && !slices.IsSortedFunc(part, ComparePairs) {
			panic(fmt.Sprintf("pathsim: MergeTopK part %d is not in top-k order", i))
		}
		n += len(part)
	}
	n = min(n, k)
	out := dst[:0]
	if cap(out) < n {
		out = make([]Pair, 0, n)
	}
	var few [8]int
	next := few[:] // next[i] is the head of parts[i]; on the stack for up to 8 parts
	if len(parts) > len(few) {
		next = make([]int, len(parts))
	}
	for len(out) < n {
		best, head := -1, Pair{}
		for i, part := range parts {
			if j := next[i]; j < len(part) && (best < 0 || before(part[j], head)) {
				best, head = i, part[j]
			}
		}
		out = append(out, head)
		next[best]++
	}
	return out
}
