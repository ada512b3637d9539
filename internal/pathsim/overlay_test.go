// Tests of an index held as base + overlay: the form NewRangeIndexCtx
// yields over a network that was written to since the range was built.
package pathsim

import (
	"context"
	"math/rand"
	"testing"

	"hinet/internal/dblp"
	"hinet/internal/hin"
	"hinet/internal/ingest"
	"hinet/internal/sparse"
	"hinet/internal/stats"
)

// overlaid returns ix with the listed rows and, mirrored, columns taken
// from other (a matrix of ix's shape), held as an overlay over ix.M —
// and the same index as one matrix, the patch applied.
func overlaid(t *testing.T, ix *Index, other *sparse.Matrix, dirty []int) (over, plain *Index) {
	t.Helper()
	p := sparse.Patch{
		Rows: ix.M.Rows(), Cols: ix.M.Cols(),
		Dirty: dirty, RowBlock: other.GatherRows(dirty),
		PatchCols: dirty, ColBlock: other.Transpose().GatherRows(dirty).Transpose(),
	}
	m, err := ix.M.PatchCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	diag := m.Diagonal()
	return &Index{Path: ix.Path, over: ix.M.View().Patched(p), diag: diag, hi: ix.hi},
		&Index{Path: ix.Path, M: m, diag: diag, hi: ix.hi}
}

// TestOverlaidIndexAnswersAsItsMatrix: every query method of an index
// held as base + overlay answers what the same index answers as one
// matrix — on the tie-heavy fixture, where a candidate out of id order
// would change the result.
func TestOverlaidIndexAnswersAsItsMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ix, other := tieHeavyIndex(rng, 180, 9), tieHeavyIndex(rng, 180, 9)
	over, plain := overlaid(t, ix, other.M, []int{3, 4, 77, 120, 179})
	if over.Dim() != plain.Dim() || over.NNZ() != plain.NNZ() {
		t.Fatalf("overlaid index is %d wide with %d entries, want %d with %d", over.Dim(), over.NNZ(), plain.Dim(), plain.NNZ())
	}
	xs := make([]int, 0, over.Dim()+2)
	for x := -1; x <= over.Dim(); x++ {
		xs = append(xs, x)
	}
	for _, k := range []int{1, 7, over.Dim()} {
		batch, err := over.BatchTopKCtx(context.Background(), xs, k)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			want := plain.TopK(x, k)
			if got := over.TopK(x, k); !samePairs(got, want) {
				t.Fatalf("x=%d k=%d: TopK through the overlay = %v, want %v", x, k, got, want)
			}
			if !samePairs(batch[i], want) {
				t.Fatalf("x=%d k=%d: batched through the overlay = %v, want %v", x, k, batch[i], want)
			}
		}
	}
	for x := 0; x < over.Dim(); x++ {
		if over.RowNNZ(x) != plain.RowNNZ(x) {
			t.Fatalf("RowNNZ(%d) = %d, want %d", x, over.RowNNZ(x), plain.RowNNZ(x))
		}
		got, want := over.AllScores(x), plain.AllScores(x)
		for y := range want {
			if got[y] != want[y] || over.Sim(x, y) != plain.Sim(x, y) {
				t.Fatalf("s(%d,%d): AllScores %v, Sim %v through the overlay, want %v, %v", x, y, got[y], over.Sim(x, y), want[y], plain.Sim(x, y))
			}
		}
	}
	if _, err := over.Range(0, 10); err == nil {
		t.Fatal("Range of an overlaid index must fail: there is no matrix to slice")
	}
}

// TestTopKThroughOverlayMatchesCold: a two-area corpus takes write after
// write, each generation's index built the way a shard builds it — a
// copy-on-write clone, NewRangeIndexCtx — until a write compacts; on the
// generation before it, whose overlay is as full as it gets, every row
// at k below, around and beyond the row population answers what an
// index built cold from the same network does, on the whole range and
// on three ranges merged.
func TestTopKThroughOverlayMatchesCold(t *testing.T) {
	c := dblp.Generate(stats.NewRNG(11), dblp.Config{
		Areas:          []string{"db", "ml"},
		AuthorsPerArea: 300,
		Papers:         2400,
	})
	path := hin.MetaPath{dblp.TypeAuthor, dblp.TypePaper, dblp.TypeVenue, dblp.TypePaper, dblp.TypeAuthor}
	ctx := context.Background()
	build := func(c *dblp.Corpus) (whole *Index, ranges []*Index) {
		t.Helper()
		dim := c.Net.Count(dblp.TypeAuthor)
		for _, r := range [][2]int{{0, dim}, {0, 200}, {200, 400}, {400, dim}} {
			ix, err := NewRangeIndexCtx(ctx, c.Net, path, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			ranges = append(ranges, ix)
		}
		return ranges[0], ranges[1:]
	}
	whole, ranges := build(c)
	if whole.over != nil {
		t.Fatal("a cold build must be one matrix")
	}
	rng := stats.NewRNG(5)
	for writes := 0; ; writes++ {
		net := c.Net.Clone()
		if _, err := ingest.Apply(net, ingest.SamplePapers(c, rng, 1), ingest.Options{}); err != nil {
			t.Fatal(err)
		}
		next := c.WithNetwork(net)
		w, r := build(next)
		if w.over == nil {
			if writes < 2 {
				t.Fatalf("the index compacted after %d writes: the corpus is too small to defer on", writes)
			}
			break
		}
		c, whole, ranges = next, w, r
	}
	t.Logf("fullest overlay: %d rows of %d", len(whole.over.Dirty()), whole.Dim())

	coldNet := c.Net.Clone()
	coldNet.PathEngine().Reset()
	cold := NewIndex(coldNet, path)
	if whole.NNZ() != cold.NNZ() || whole.Dim() != cold.Dim() {
		t.Fatalf("overlaid index: dim %d nnz %d, cold %d and %d", whole.Dim(), whole.NNZ(), cold.Dim(), cold.NNZ())
	}
	spliced := 0
	parts := make([][]Pair, len(ranges))
	for x := 0; x < cold.Dim(); x++ {
		if row := whole.over.Row(x); row.Spliced() {
			spliced++
		}
		cands := candidates(cold, x)
		for _, k := range []int{1, 10, 100, len(cands)} {
			want := sortedPrefix(cands, k)
			if got := whole.TopK(x, k); !samePairs(got, want) {
				t.Fatalf("x=%d k=%d: through the overlay %v, want %v", x, k, got, want)
			}
			for i, ix := range ranges {
				parts[i] = ix.TopK(x, k)
			}
			if got := MergeTopK(parts, k, nil); !samePairs(got, want) {
				t.Fatalf("x=%d k=%d: 3 ranges merge to %v, want %v", x, k, got, want)
			}
		}
	}
	if spliced == 0 {
		t.Fatal("no row was read through the overlay's columns")
	}
}
