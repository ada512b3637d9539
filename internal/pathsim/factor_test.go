// The proof that the served form answers as the reference form: a
// factor index (NewRangeIndexCtx) against the materialized commuting
// matrix cut to the same range (NewIndexCtx + Range), bit for bit.
package pathsim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hinet/internal/dblp"
	"hinet/internal/hin"
	"hinet/internal/stats"
)

// mixedWeightNet is a small DBLP corpus with fractional and negative
// link weights sprinkled over it, plus two authors and two venues whose
// half-path rows cancel: every path instance between the pair is
// matched by one of opposite weight, so the commuting-matrix entry is
// touched and sums to exactly zero — which the stored form drops.
func mixedWeightNet(t *testing.T) (net *hin.Network, authors, venues [2]int) {
	t.Helper()
	c := dblp.Generate(stats.NewRNG(23), dblp.Config{
		VenuesPerArea: 3, AuthorsPerArea: 35, TermsPerArea: 20, SharedTerms: 8, Papers: 320,
	})
	net = c.Net
	rng := rand.New(rand.NewSource(23))
	pick := func(t hin.Type) int { return rng.Intn(net.Count(t)) }
	for i := 0; i < 60; i++ {
		w := []float64{1.0 / 3, 0.1, -0.5, 2.75, -1.0 / 7}[i%5]
		p := pick(dblp.TypePaper)
		switch i % 3 {
		case 0:
			net.AddLink(dblp.TypePaper, p, dblp.TypeAuthor, pick(dblp.TypeAuthor), w)
		case 1:
			net.AddLink(dblp.TypePaper, p, dblp.TypeVenue, pick(dblp.TypeVenue), w)
		default:
			net.AddLink(dblp.TypePaper, p, dblp.TypeTerm, pick(dblp.TypeTerm), w)
		}
	}
	for i := range authors {
		authors[i] = net.AddObject(dblp.TypeAuthor, fmt.Sprintf("cancel-a%d", i))
		venues[i] = net.AddObject(dblp.TypeVenue, fmt.Sprintf("cancel-v%d", i))
	}
	// Paper i appears in venue i under term i; both authors wrote both,
	// the second with weight −1 on the second paper.
	for i, w := range []float64{1, -1} {
		p := net.AddObject(dblp.TypePaper, fmt.Sprintf("cancel-p%d", i))
		net.AddLink(dblp.TypePaper, p, dblp.TypeVenue, venues[i], 1)
		net.AddLink(dblp.TypePaper, p, dblp.TypeTerm, i, 1)
		net.AddLink(dblp.TypePaper, p, dblp.TypeAuthor, authors[0], 1)
		net.AddLink(dblp.TypePaper, p, dblp.TypeAuthor, authors[1], w)
	}
	return net, authors, venues
}

// sameBits reports whether two score vectors are identical bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFactorMatchesMaterialized: for every key — and the ids just
// outside — at k from 1 to beyond the row, over the whole range and
// over uniform and skewed cuts of it (empty ranges among them), a
// factor index answers TopK, BatchTopKCtx, Sim and AllScores as the
// materialized matrix cut to the same range does, and its ranges merge
// to the whole answer; on a path whose factor is a planned product, one
// whose factor is a relation, one whose factor is cached transposed,
// and one that has no factor at all.
func TestFactorMatchesMaterialized(t *testing.T) {
	net, authors, venues := mixedWeightNet(t)
	net.AddLink(dblp.TypeAuthor, 0, dblp.TypeAuthor, 1, 1) // a homogeneous relation: A-A-A is symmetric, not Gram-shaped
	net.AddLink(dblp.TypeAuthor, 1, dblp.TypeAuthor, 2, 0.5)
	a, p, v, tm := dblp.TypeAuthor, dblp.TypePaper, dblp.TypeVenue, dblp.TypeTerm
	ctx := context.Background()
	for _, tc := range []struct {
		path    hin.MetaPath
		cancels [2]int // a pair whose entry sums to exactly zero
		factor  bool
	}{
		{hin.MetaPath{a, p, v, p, a}, authors, true},
		{hin.MetaPath{a, p, tm, p, a}, authors, true},
		{hin.MetaPath{a, p, a}, authors, true},
		{hin.MetaPath{v, p, a, p, v}, venues, true},
		{hin.MetaPath{a, a, a}, [2]int{-1, -1}, false},
	} {
		t.Run(tc.path.String(), func(t *testing.T) {
			ref, err := NewIndexCtx(ctx, net, tc.path)
			if err != nil {
				t.Fatal(err)
			}
			dim := ref.Dim()
			if x, y := tc.cancels[0], tc.cancels[1]; tc.factor {
				if ref.M.At(x, y) != 0 || ref.RowNNZ(x) == 0 {
					t.Fatalf("fixture: M[%d][%d] = %v in a row of %d entries, want a dropped zero", x, y, ref.M.At(x, y), ref.RowNNZ(x))
				}
				for _, pr := range ref.TopK(x, dim) {
					if pr.ID == y {
						t.Fatalf("fixture: %d is a candidate of %d", y, x)
					}
				}
			}
			xs := make([]int, 0, dim+2)
			for x := -1; x <= dim; x++ {
				xs = append(xs, x)
			}
			rng := rand.New(rand.NewSource(5))
			for _, cut := range []struct {
				parts int
				skew  bool
			}{{1, false}, {3, false}, {3, true}, {9, true}} {
				ranges := cutRanges(rng, dim, cut.parts, cut.skew)
				factors := make([]*Index, len(ranges))
				for i, r := range ranges {
					f, err := NewRangeIndexCtx(ctx, net, tc.path, r[0], r[1])
					if err != nil {
						t.Fatal(err)
					}
					m, err := ref.Range(r[0], r[1])
					if err != nil {
						t.Fatal(err)
					}
					if (f.M == nil) != tc.factor {
						t.Fatalf("range %v: served as a factor %v, want %v", r, f.M == nil, tc.factor)
					}
					if f.Lo() != m.Lo() || f.Hi() != m.Hi() || f.Dim() != m.Dim() {
						t.Fatalf("range %v: geometry [%d,%d) of %d, want [%d,%d) of %d", r, f.Lo(), f.Hi(), f.Dim(), m.Lo(), m.Hi(), m.Dim())
					}
					factors[i] = f
					for _, k := range []int{1, 10, 100, dim + 1} {
						batch := batchTopK(f, xs, k)
						for j, x := range xs {
							want := m.TopK(x, k)
							if got := f.TopK(x, k); !samePairs(got, want) {
								t.Fatalf("range %v: TopK(%d, %d) = %v, want %v", r, x, k, got, want)
							}
							if !samePairs(batch[j], want) {
								t.Fatalf("range %v: batched TopK(%d, %d) = %v, want %v", r, x, k, batch[j], want)
							}
						}
					}
					for _, x := range xs {
						if got, want := f.AllScores(x), m.AllScores(x); !sameBits(got, want) {
							t.Fatalf("range %v: AllScores(%d) = %v, want %v", r, x, got, want)
						}
						for _, y := range xs {
							if got, want := f.Sim(x, y), m.Sim(x, y); math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("range %v: Sim(%d, %d) = %v, want %v", r, x, y, got, want)
							}
						}
						if x >= 0 && x < dim && f.RowNNZ(x) < m.RowNNZ(x) {
							t.Fatalf("range %v: RowNNZ(%d) = %d does not bound the row's %d entries", r, x, f.RowNNZ(x), m.RowNNZ(x))
						}
					}
				}
				parts := make([][]Pair, len(factors))
				for _, k := range []int{1, 10, 100, dim + 1} {
					for x := 0; x < dim; x++ {
						for i, f := range factors {
							parts[i] = f.TopK(x, k)
						}
						if got, want := MergeTopK(parts, k, nil), ref.TopK(x, k); !samePairs(got, want) {
							t.Fatalf("%d ranges (skew %v): TopK(%d, %d) merges to %v, want %v", cut.parts, cut.skew, x, k, got, want)
						}
					}
				}
			}
		})
	}
}
