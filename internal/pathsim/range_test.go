package pathsim

import (
	"context"
	"math/rand"
	"testing"

	"hinet/internal/dblp"
	"hinet/internal/hin"
	"hinet/internal/stats"
)

// pairsBitwiseEqual fails unless got and want match exactly: same
// length, same ids in the same order, scores bitwise-identical.
func pairsBitwiseEqual(t *testing.T, want, got []Pair, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].ID != got[i].ID || want[i].Score != got[i].Score {
			t.Fatalf("%s: pair %d = {%d, %v}, want {%d, %v} (bitwise)",
				label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

// cutRanges splits [0, dim) into parts disjoint covering ranges —
// uniform when skew is false, heavily unbalanced (including empty
// ranges) when true.
func cutRanges(rng *rand.Rand, dim, parts int, skew bool) [][2]int {
	bounds := make([]int, parts+1)
	bounds[parts] = dim
	if skew {
		for i := 1; i < parts; i++ {
			bounds[i] = rng.Intn(dim + 1)
		}
		// Sort the interior cut points; duplicates yield empty ranges.
		for i := 1; i < parts; i++ {
			for j := i; j > 1 && bounds[j] < bounds[j-1]; j-- {
				bounds[j], bounds[j-1] = bounds[j-1], bounds[j]
			}
		}
	} else {
		for i := 1; i < parts; i++ {
			bounds[i] = i * dim / parts
		}
	}
	out := make([][2]int, parts)
	for i := 0; i < parts; i++ {
		out[i] = [2]int{bounds[i], bounds[i+1]}
	}
	return out
}

// TestRangeTopKMergeMatchesFull is the core sharding equivalence
// property: for random corpora, shard counts and partition shapes —
// uniform and skewed, factor ranges and matrix slices alike — merging
// per-range partial TopK answers must reproduce the full index's answer
// bitwise, tie order included, and the factor ranges' sizes must add up
// to the whole factor's.
func TestRangeTopKMergeMatchesFull(t *testing.T) {
	path := hin.MetaPath{dblp.TypeAuthor, dblp.TypePaper, dblp.TypeVenue, dblp.TypePaper, dblp.TypeAuthor}
	for _, seed := range []int64{1, 7} {
		c := dblp.Generate(stats.NewRNG(seed), dblp.Config{
			VenuesPerArea:  3,
			AuthorsPerArea: 30,
			TermsPerArea:   20,
			SharedTerms:    8,
			Papers:         250,
		})
		full := NewIndex(c.Net, path)
		dim := full.Dim()
		factor, err := NewRangeIndexCtx(context.Background(), c.Net, path, 0, dim)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 101))
		for _, parts := range []int{1, 2, 3, 8} {
			for _, skewed := range []bool{false, true} {
				ranges := cutRanges(rng, dim, parts, skewed)
				slices := make([]*Index, parts)
				built := make([]*Index, parts)
				stored, work := 0, 0
				for i, r := range ranges {
					var err error
					if slices[i], err = full.Range(r[0], r[1]); err != nil {
						t.Fatal(err)
					}
					if built[i], err = NewRangeIndexCtx(context.Background(), c.Net, path, r[0], r[1]); err != nil {
						t.Fatal(err)
					}
					stored, work = stored+slices[i].NNZ(), work+built[i].NNZ()
				}
				if stored != full.NNZ() || work != factor.NNZ() {
					t.Fatalf("seed %d parts %d: ranges hold %d entries and %d multiply-adds, the whole %d and %d",
						seed, parts, stored, work, full.NNZ(), factor.NNZ())
				}
				for _, k := range []int{1, 10, dim} {
					for trial := 0; trial < 15; trial++ {
						x := rng.Intn(dim)
						want := full.TopK(x, k)
						for name, ixs := range map[string][]*Index{"slice": slices, "factor": built} {
							partials := make([][]Pair, parts)
							for i, ix := range ixs {
								partials[i] = ix.TopK(x, k)
							}
							got := MergeTopK(partials, k, nil)
							pairsBitwiseEqual(t, want, got,
								"seed "+string(rune('0'+seed))+" "+name)
						}
					}
				}
			}
		}
	}
}

// TestRangeBatchTopKMatchesSingles checks the arena batch path against
// per-query TopK, including out-of-range queries.
func TestRangeBatchTopKMatchesSingles(t *testing.T) {
	c := dblp.Generate(stats.NewRNG(3), dblp.Config{
		VenuesPerArea:  2,
		AuthorsPerArea: 25,
		TermsPerArea:   15,
		SharedTerms:    5,
		Papers:         200,
	})
	path := hin.MetaPath{dblp.TypeAuthor, dblp.TypePaper, dblp.TypeVenue, dblp.TypePaper, dblp.TypeAuthor}
	full := NewIndex(c.Net, path)
	dim := full.Dim()
	ix, err := full.Range(dim/4, dim/2)
	if err != nil {
		t.Fatal(err)
	}
	xs := []int{-1, 0, dim / 3, dim - 1, dim, dim / 2}
	for _, k := range []int{0, 5, dim} {
		batch := batchTopK(ix, xs, k)
		for i, x := range xs {
			pairsBitwiseEqual(t, ix.TopK(x, k), batch[i], "batch entry")
		}
	}
}

// TestRangeSimMatchesFull checks the point lookup against the full
// index inside the owned range and zero outside it.
func TestRangeSimMatchesFull(t *testing.T) {
	full := NewIndex(toyNet(), apvpa)
	ix, err := full.Range(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for x := -1; x <= 4; x++ {
		for y := -1; y <= 4; y++ {
			want := 0.0
			if y >= 1 && y < 3 && x >= 0 && x < 4 {
				want = full.Sim(x, y)
			}
			if got := ix.Sim(x, y); got != want {
				t.Fatalf("Sim(%d,%d) = %v, want %v", x, y, got, want)
			}
		}
	}
	if ix.Lo() != 1 || ix.Hi() != 3 || ix.Rows() != 2 || ix.Dim() != 4 {
		t.Fatalf("range geometry Lo=%d Hi=%d Rows=%d Dim=%d", ix.Lo(), ix.Hi(), ix.Rows(), ix.Dim())
	}
}

func TestRangeOutOfBounds(t *testing.T) {
	full := NewIndex(toyNet(), apvpa)
	for _, r := range [][2]int{{-1, 2}, {3, 2}, {0, 5}} {
		if _, err := full.Range(r[0], r[1]); err == nil {
			t.Fatalf("Range(%d,%d) should fail", r[0], r[1])
		}
		if _, err := NewRangeIndexCtx(context.Background(), toyNet(), apvpa, r[0], r[1]); err == nil {
			t.Fatalf("NewRangeIndexCtx(%d,%d) should fail", r[0], r[1])
		}
	}
	if _, err := NewRangeIndexCtx(context.Background(), toyNet(), hin.MetaPath{"author", "paper"}, 0, 1); err == nil {
		t.Fatal("asymmetric path should fail validation")
	}
}

// TestMergeTopKOnePart: a single part is already the answer — the merge
// hands it back as is, tie order and score bits included, not a
// re-heaped copy — cut to k.
func TestMergeTopKOnePart(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ix := tieHeavyIndex(rng, 120, 6)
	ties := false
	for x := 0; x < ix.Dim(); x++ {
		part := ix.TopK(x, 20)
		for i := 1; i < len(part); i++ {
			ties = ties || part[i].Score == part[i-1].Score
		}
		got := MergeTopK([][]Pair{part}, 20, nil)
		pairsBitwiseEqual(t, part, got, "one part")
		if len(part) > 0 && &got[0] != &part[0] {
			t.Fatal("one-part merge copied the part")
		}
		pairsBitwiseEqual(t, ix.TopK(x, 3), MergeTopK([][]Pair{part}, 3, nil), "one part cut to k")
	}
	if !ties {
		t.Fatal("fixture produced no tied scores")
	}
	if got := MergeTopK([][]Pair{ix.TopK(0, 5)}, 0, nil); len(got) != 0 {
		t.Fatalf("k=0 merge returned %v", got)
	}
}
