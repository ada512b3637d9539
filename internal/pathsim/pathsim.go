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
	"math/bits"
	"slices"

	"hinet/internal/hin"
	"hinet/internal/sparse"
)

// Index is a prepared PathSim index for one symmetric meta path over
// the candidate range [Lo, Hi) of the path's endpoint type. It answers
// queries for ANY object x, restricted to the candidates it owns; the
// full index is simply the range [0, Dim), and a shard of the serving
// tier (internal/cluster) holds a narrower one. A narrower range scores
// the exact float64 entries of the full commuting matrix, so its answers
// are the full index's answers filtered to the range and MergeTopK
// reassembles the global answer exactly.
//
// It comes in two forms that answer every query with the same bits:
//
//   - the factor form (NewRangeIndexCtx, what the server holds): the
//     half-path product W and its transpose, both the meta-path engine's
//     own cache entries and shared by every index over the network. The
//     commuting matrix M = W·Wᵀ is never stored; a query accumulates its
//     one row, Σ_mid W[x,mid]·Wᵀ[mid,·] in ascending mid over the columns
//     in [Lo, Hi) — the terms, and the order, the Gram kernel sums a
//     stored entry in — so what it scores is what the stored row holds.
//     The index is as small as W and a write refreshes it by patching W.
//   - the materialized form (NewIndexCtx and Range of it): columns
//     [Lo, Hi) of M as a matrix, quadratic in what W summarizes. It is
//     the reference the factor form is tested against, the form
//     Models.PathSim and the experiments read M from, and the only form
//     a symmetric path that is not Gram-shaped (an adjacent repeated
//     type) has.
//
// All query methods are read-only, so an Index is safe for
// unsynchronized sharing.
type Index struct {
	Path   hin.MetaPath
	M      *sparse.Matrix // materialized: Dim × (Hi-Lo), columns [Lo, Hi) of the commuting matrix; nil on a factor index
	w, wt  *sparse.Matrix // factor: the half-path product (Dim × mids) and its transpose; nil on a materialized index
	nnz    int            // NNZ()
	diag   []float64      // full diagonal (PathSim denominators for every object)
	lo, hi int
}

// Dim returns the number of objects the path's endpoint type has — the
// valid query-id range, which is NOT restricted to [Lo, Hi).
func (ix *Index) Dim() int { return len(ix.diag) }

// NNZ returns the size of the index as a scan sees it: the stored
// nonzeros of a materialized index, and for a factor index, which
// stores no product entry, the multiply-adds a scan of every row of its
// range performs — Σ_mid nnz(Wᵀ[mid, Lo:Hi))·nnz(Wᵀ[mid, ·]). Either is
// additive over disjoint ranges (so the partition-skew signal sums to
// the whole) and O(1) to read.
func (ix *Index) NNZ() int { return ix.nnz }

// RowNNZ returns the stored entries of row x on a materialized index —
// the candidates in [Lo, Hi) that share a path instance with x — and on
// a factor index, which would have to accumulate the row to count them,
// the Wᵀ entries x's mids reach: the multiply-adds of scanning row x
// over the whole type, and a bound on its candidates in any range.
func (ix *Index) RowNNZ(x int) int {
	if ix.M != nil {
		return ix.M.RowNNZ(x)
	}
	n := 0
	mids, _ := ix.w.RowEntries(x)
	for _, mid := range mids {
		n += ix.wt.RowNNZ(int(mid))
	}
	return n
}

// score offers the candidates of row x to s, in ascending id: the
// stored entries of a materialized row, or, on a factor index, the row
// accumulated — Σ_mid W[x,mid]·Wᵀ[mid,·] in ascending mid, each sorted
// Wᵀ row cut to [Lo, Hi) — into s's dense accumulator and read back
// through the bitmap of the columns touched, which leaves both zeroed
// for the next row. (An entry that sums to exactly zero, which the
// stored row drops, is skipped like any zero.)
func (ix *Index) score(s *selection, x int) {
	dx := ix.diag[x]
	if ix.M != nil {
		cols, vals := ix.M.RowEntries(x)
		s.reset(len(cols))
		for i, c := range cols {
			ix.offer(s, x, ix.lo+int(c), dx, vals[i])
		}
		return
	}
	n := ix.hi - ix.lo
	acc, mask := s.span(n)
	lo := int32(ix.lo)
	mids, ws := ix.w.RowEntries(x)
	for i, mid := range mids {
		wv := ws[i]
		ys, vs := ix.wt.RowEntries(int(mid))
		if n != len(ix.diag) { // the whole range needs no cut
			a, _ := slices.BinarySearch(ys, lo)
			b, _ := slices.BinarySearch(ys, int32(ix.hi))
			ys, vs = ys[a:b], vs[a:b]
		}
		vs = vs[:len(ys)]
		// ys ascends, so neighbours share a mask word: its bits gather in a
		// register and reach memory once per word, not once per entry.
		word, set := int32(0), uint64(0)
		for j, y := range ys {
			c := y - lo
			acc[c] += wv * vs[j]
			if w := c >> 6; w != word {
				mask[word] |= set
				word, set = w, 0
			}
			set |= 1 << (uint(c) & 63)
		}
		mask[word] |= set
	}
	touched := 0
	for _, word := range mask {
		touched += bits.OnesCount64(word)
	}
	s.reset(touched)
	for i, word := range mask {
		if word == 0 {
			continue
		}
		mask[i] = 0
		for ; word != 0; word &= word - 1 {
			c := i<<6 + bits.TrailingZeros64(word)
			ix.offer(s, x, ix.lo+c, dx, acc[c])
			acc[c] = 0
		}
	}
}

// offer scores candidate y of query x, whose commuting-matrix entry is
// v, into s.
func (ix *Index) offer(s *selection, x, y int, dx, v float64) {
	if y == x || v == 0 {
		return
	}
	den := dx + ix.diag[y]
	if den == 0 {
		return
	}
	s.add(y, 2*v/den)
}

// Lo returns the first candidate id the index owns.
func (ix *Index) Lo() int { return ix.lo }

// Hi returns one past the last candidate id the index owns.
func (ix *Index) Hi() int { return ix.hi }

// Rows returns the number of candidate objects the index owns.
func (ix *Index) Rows() int { return ix.hi - ix.lo }

// NewIndex builds the materialized index of a symmetric meta path: the
// commuting matrix via the network's meta-path engine (planned order,
// Gram factorization, cached intermediates). It panics on invalid paths;
// NewIndexE returns an error instead.
func NewIndex(n *hin.Network, path hin.MetaPath) *Index {
	ix, err := NewIndexE(n, path)
	if err != nil {
		panic("pathsim: " + err.Error())
	}
	return ix
}

// NewIndexE is the non-panicking NewIndex.
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
	return &Index{Path: path, M: m, nnz: m.NNZ(), diag: m.Diagonal(), hi: m.Rows()}, nil
}

// NewRangeIndexCtx is the serving constructor: the [lo, hi) range of
// the index in factor form, which costs the half-path product (cached
// by the engine, patched by it after a write) and one pass over it for
// the diagonal — no commuting matrix, whatever the range. Every answer
// is bitwise what NewIndexCtx followed by Range(lo, hi) answers. A
// symmetric path that is not Gram-shaped has no factor and is built
// exactly that way.
func NewRangeIndexCtx(ctx context.Context, n *hin.Network, path hin.MetaPath, lo, hi int) (*Index, error) {
	if err := ValidatePath(path); err != nil {
		return nil, err
	}
	w, wt, err := n.CommutingFactorCtx(ctx, path)
	if err != nil {
		return nil, err
	}
	if w == nil {
		full, err := NewIndexCtx(ctx, n, path)
		if err != nil {
			return nil, err
		}
		return full.Range(lo, hi)
	}
	full := &Index{Path: path, w: w, wt: wt, diag: w.GramDiagonal(), hi: w.Rows()}
	return full.Range(lo, hi)
}

// Range narrows the index to the candidate range [lo, hi), which must
// lie inside its own. The diagonal is shared (it is immutable), and so
// is a factor; a materialized index copies the columns it keeps.
func (ix *Index) Range(lo, hi int) (*Index, error) {
	if lo < ix.lo || hi < lo || hi > ix.hi {
		return nil, fmt.Errorf("range [%d,%d) out of [%d,%d)", lo, hi, ix.lo, ix.hi)
	}
	out := &Index{Path: ix.Path, w: ix.w, wt: ix.wt, diag: ix.diag, lo: lo, hi: hi}
	if ix.M != nil {
		out.M = ix.M.ColSlice(lo-ix.lo, hi-ix.lo)
		out.nnz = out.M.NNZ()
		return out, nil
	}
	// Σ_mid nnz(Wᵀ[mid, lo:hi))·nnz(Wᵀ[mid, ·]), summed by candidate: each
	// owned c contributes nnz(Wᵀ[mid, ·]) for every mid of its W row.
	for c := lo; c < hi; c++ {
		out.nnz += out.RowNNZ(c)
	}
	return out, nil
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
	if ix.M != nil {
		return 2 * ix.M.At(x, y-ix.lo) / den
	}
	// M[x][y] is W's rows x and y multiplied over the mids they share,
	// ascending — the one entry of the accumulated row.
	xm, xv := ix.w.RowEntries(x)
	ym, yv := ix.w.RowEntries(y)
	v := 0.0
	for i, j := 0, 0; i < len(xm) && j < len(ym); {
		switch {
		case xm[i] < ym[j]:
			i++
		case xm[i] > ym[j]:
			j++
		default:
			v += xv[i] * yv[j]
			i, j = i+1, j+1
		}
	}
	return 2 * v / den
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
	ix.score(s, x)
	return s.topK(k, dst)
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
// immutable index, so they parallelize perfectly; this is
// the bulk entry point for serving many similarity queries at once.
// All result slices are carved from one arena sized by each query's
// true result bound — min(k, Rows, RowNNZ) — so a client-supplied
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
			need = min(ix.RowNNZ(x), ix.Rows(), k)
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
	for y := ix.lo; y < ix.hi; y++ {
		scores[y] = ix.Sim(x, y)
	}
	if x >= ix.lo && x < ix.hi {
		scores[x] = 1
	}
	return scores
}

// MergeTopK merges per-range partial top-k lists into the global
// top-k, writing into dst's backing array (allocating only when it is
// too small). Every part must already be in top-k order — TopK,
// BatchTopKCtx and MergeTopK itself all return theirs that way; builds
// with the race detector on check it and panic — so
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
