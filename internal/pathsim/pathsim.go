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
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"

	"hinet/internal/hin"
	"hinet/internal/sparse"
	"hinet/internal/stats"
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
type Index struct {
	Path   hin.MetaPath
	M      *sparse.Matrix // Dim × (Hi-Lo): columns [Lo, Hi) of the commuting matrix
	diag   []float64      // full diagonal (PathSim denominators for every object)
	lo, hi int
}

// Dim returns the number of objects the path's endpoint type has — the
// valid query-id range, which is NOT restricted to [Lo, Hi).
func (ix *Index) Dim() int { return ix.M.Rows() }

// NNZ returns the stored nonzeros of the index — the memory and scan
// cost it pays to make queries row-local (and, for a shard's range, the
// partition-skew signal).
func (ix *Index) NNZ() int { return ix.M.NNZ() }

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
// to slicing a full NewIndexCtx build, and [0, Dim) is that build.
func NewRangeIndexCtx(ctx context.Context, n *hin.Network, path hin.MetaPath, lo, hi int) (*Index, error) {
	if err := ValidatePath(path); err != nil {
		return nil, err
	}
	cols, diag, err := n.CommutingColsCtx(ctx, path, lo, hi)
	if err != nil {
		return nil, err
	}
	return &Index{Path: path, M: cols, diag: diag, lo: lo, hi: hi}, nil
}

// Range narrows the index to the candidate range [lo, hi), which must
// lie inside its own — the reference constructor the equivalence tests
// compare the engine-built ranges against, and the cheap path when a
// wider index already exists. The diagonal is shared (it is immutable).
func (ix *Index) Range(lo, hi int) (*Index, error) {
	if lo < ix.lo || hi < lo || hi > ix.hi {
		return nil, fmt.Errorf("range [%d,%d) out of [%d,%d)", lo, hi, ix.lo, ix.hi)
	}
	return &Index{Path: ix.Path, M: ix.M.ColSlice(lo-ix.lo, hi-ix.lo), diag: ix.diag, lo: lo, hi: hi}, nil
}

// inRange reports whether x is a valid query id for this index. Query
// methods treat out-of-range ids as "no results" rather than panicking,
// so a stray client id can never take down a serving process.
func (ix *Index) inRange(x int) bool { return x >= 0 && x < ix.M.Rows() }

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
	return 2 * ix.M.At(x, y-ix.lo) / den
}

// Pair is a scored query answer.
type Pair struct {
	ID    int
	Score float64
}

// WorsePair reports whether a ranks strictly below b in the top-k
// order (score descending, ties by ascending id): a loses on a lower
// score, or on a higher id at an equal score. It is the strict total
// order every top-k selection in this package uses with
// stats.BoundedOffer; the cluster coordinator merges per-shard partial
// answers under the same order, which is what makes merged results
// bitwise-identical to single-index ones.
func WorsePair(a, b Pair) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// ComparePairs is the top-k output order for slices.SortFunc: score
// descending, ties by ascending id — the sort dual of WorsePair.
func ComparePairs(a, b Pair) int {
	if a.Score != b.Score {
		return cmp.Compare(b.Score, a.Score)
	}
	return cmp.Compare(a.ID, b.ID)
}

// topKInto is TopK writing its heap (and result) into dst's backing
// array: a bounded partial selection (stats.BoundedOffer min-heap,
// worst at root) over the query's row, candidates ascending. The
// surviving ≤ k pairs are then sorted, which reproduces the
// full-sort-then-truncate order exactly — ties included — at
// O(m·log k) instead of O(m·log m) for a population-m row, with no
// candidate buffer proportional to the row size. The entries a
// narrower range visits are exactly the full row-scan's entries with
// Lo ≤ y < Hi, in the same relative order and with the same float64
// scores, so its result is the full answer filtered to the range.
func (ix *Index) topKInto(x, k int, dst []Pair) []Pair {
	if !ix.inRange(x) || k <= 0 {
		return nil
	}
	h := dst[:0]
	dx := ix.diag[x]
	ix.M.Row(x, func(yl int, v float64) {
		y := ix.lo + yl
		if y == x || v == 0 {
			return
		}
		den := dx + ix.diag[y]
		if den == 0 {
			return
		}
		h = stats.BoundedOffer(h, k, Pair{ID: y, Score: 2 * v / den}, WorsePair)
	})
	slices.SortFunc(h, ComparePairs)
	return h
}

// TopK returns the k most PathSim-similar candidates to x among
// [Lo, Hi) (excluding x), global ids, descending, ties by id. Only
// objects sharing at least one path instance with x can score above 0,
// so the scan touches just row x; a bounded heap selects the k best
// without sorting the whole row. An out-of-range x returns no results.
func (ix *Index) TopK(x, k int) []Pair {
	return ix.topKInto(x, k, nil)
}

// BatchTopKCtx answers one TopK query per entry of xs, fanning the
// queries out over the shared sparse worker pool. Queries only read the
// immutable commuting matrix, so they parallelize perfectly; this is
// the bulk entry point for serving many similarity queries at once.
// All result slices are carved from one arena sized by each query's
// true result bound — min(k, row population) — so a client-supplied
// huge k cannot inflate the batch beyond its actual result mass, and
// the heap selection works in place inside each query's segment: a
// batch performs O(1) allocations regardless of batch size or row
// population. (Result slices therefore share one backing array; copy a
// slice before retaining it long-term, or the whole batch's arena
// stays reachable.) The work estimate includes the per-query selection
// (≈ m·log k on the row population m), not just the row scan, so
// medium batches of dense-row queries cross the pool's serial
// threshold as their real cost warrants. Out-of-range entries of xs
// yield empty result slices, like TopK.
//
// The fan-out polls ctx between blocks (sparse.ParRangeCtx), so a batch
// whose callers have all given up stops burning pool workers. On
// cancellation it returns ctx.Err() and no results.
func (ix *Index) BatchTopKCtx(ctx context.Context, xs []int, k int) ([][]Pair, error) {
	out := make([][]Pair, len(xs))
	rows := ix.M.Rows()
	if k <= 0 || rows == 0 || ix.Rows() == 0 {
		return out, nil
	}
	offsets := make([]int, len(xs)+1)
	for i, x := range xs {
		need := 0
		if x >= 0 && x < rows {
			if need = ix.M.RowNNZ(x); need > k {
				need = k
			}
		}
		offsets[i+1] = offsets[i] + need
	}
	arena := make([]Pair, offsets[len(xs)])
	avg := ix.M.NNZ() / rows
	perQuery := (1 + avg) * (1 + bits.Len(uint(min(k, rows))))
	err := sparse.ParRangeCtx(ctx, len(xs), len(xs)*perQuery, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = ix.topKInto(xs[i], k, arena[offsets[i]:offsets[i]:offsets[i+1]])
		}
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
	scores := make([]float64, ix.M.Rows())
	ix.M.Row(x, func(yl int, v float64) {
		y := ix.lo + yl
		den := ix.diag[x] + ix.diag[y]
		if den > 0 {
			scores[y] = 2 * v / den
		}
	})
	if x >= ix.lo && x < ix.hi {
		scores[x] = 1
	}
	return scores
}

// MergeTopK merges per-range partial top-k lists into the global
// top-k, writing into dst's backing array: bounded-heap selection over
// the concatenation under WorsePair, sorted with ComparePairs. Any
// global top-k member ranks within the top k of its own range, so as
// long as every partial was selected with the same k over disjoint
// covering ranges, the merge reproduces a single-index TopK exactly —
// scores bitwise, tie order included (the order is strict and total,
// and partial scores are float64-identical to full-scan scores). A
// single part is already that answer and is returned as is (cut to k),
// not copied.
func MergeTopK(parts [][]Pair, k int, dst []Pair) []Pair {
	if len(parts) == 1 {
		return parts[0][:min(len(parts[0]), max(k, 0))]
	}
	h := dst[:0]
	for _, part := range parts {
		for _, p := range part {
			h = stats.BoundedOffer(h, k, p, WorsePair)
		}
	}
	slices.SortFunc(h, ComparePairs)
	return h
}
