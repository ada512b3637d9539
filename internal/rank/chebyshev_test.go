package rank

import (
	"strconv"
	"testing"

	"hinet/internal/dblp"
	"hinet/internal/hin"
	"hinet/internal/sparse"
	"hinet/internal/stats"
)

// coauthorGraph is the A-P-A graph of a generated corpus: symmetric,
// weighted by shared papers, with each author's paper count on the
// diagonal, and four communities.
func coauthorGraph(t *testing.T, cfg dblp.Config) *sparse.Matrix {
	t.Helper()
	c := dblp.Generate(stats.NewRNG(1), cfg)
	adj := c.Net.CommutingMatrix(hin.MetaPath{dblp.TypeAuthor, dblp.TypePaper, dblp.TypeAuthor})
	if !adj.Symmetric() {
		t.Fatal("the co-author graph is not symmetric")
	}
	return adj
}

// paperDelta is what a paper by authors adds to the co-author graph: one
// to every ordered pair of them, diagonal included.
func paperDelta(authors ...int) []sparse.Coord {
	var d []sparse.Coord
	for _, i := range authors {
		for _, j := range authors {
			d = append(d, sparse.Coord{Row: i, Col: j, Val: 1})
		}
	}
	return d
}

// TestChebyshevOnUndirectedGraph: on the co-author graph of the default
// corpus PageRank reaches the power iteration's fixed point in fewer
// iterations: cold, warm after a new paper, and personalized.
func TestChebyshevOnUndirectedGraph(t *testing.T) {
	adj := coauthorGraph(t, dblp.Config{})
	n := adj.Rows()
	edited := adj.ApplyDelta(paperDelta(1, n-2))
	restart := make([]float64, n)
	for i := 0; i < n; i += 37 {
		restart[i] = 1 + float64(i%5)
	}
	for _, tc := range []struct {
		name           string
		adj            *sparse.Matrix
		restart, start []float64
	}{
		{"cold", adj, nil, nil},
		{"warm", edited, nil, PageRank(adj, Options{}).Scores},
		{"personalized", adj, restart, nil},
		{"personalized warm", edited, restart, Personalized(adj, restart, Options{}).Scores},
	} {
		got := Personalized(tc.adj, tc.restart, Options{Start: tc.start})
		power := threePassPageRank(tc.adj, tc.restart, tc.start)
		if !got.Converged || !power.Converged {
			t.Fatalf("%s: converged %v, power iteration %v", tc.name, got.Converged, power.Converged)
		}
		if got.Iterations >= power.Iterations {
			t.Errorf("%s: %d iterations, the power iteration %d", tc.name, got.Iterations, power.Iterations)
		}
		samePoint(t, tc.name, got, power)
	}
}

// samePoint holds got to the power iteration's answer: both stop on an
// L∞ step under 1e-9, so they agree to within a few of those.
func samePoint(t *testing.T, label string, got, power Result) {
	t.Helper()
	if d := sparse.MaxAbsDiff(got.Scores, power.Scores); d > 1e-8 {
		t.Fatalf("%s: %g from the power iteration's fixed point", label, d)
	}
	if s := sumOf(got.Scores); s < 1-1e-9 || s > 1+1e-9 {
		t.Fatalf("%s: scores sum to %v", label, s)
	}
}

// TestChebyshevHalvesWarmIterations is the write path's case: the
// 4 000-author co-author graph, 30 writes of three papers each, PageRank
// warm from the previous write's scores. Chebyshev takes at most half
// the power iteration's iterations over the chain, and every write lands
// on the power iteration's fixed point.
func TestChebyshevHalvesWarmIterations(t *testing.T) {
	adj := coauthorGraph(t, dblp.Config{AuthorsPerArea: 1000, Papers: 10_000})
	rng := stats.NewRNG(2)
	prev := PageRank(adj, Options{})
	var cheb, power int
	for w := 0; w < 30; w++ {
		var delta []sparse.Coord
		for p := 0; p < 3; p++ {
			authors := make([]int, 1+rng.Intn(4))
			for i := range authors {
				authors[i] = rng.Intn(adj.Rows())
			}
			delta = append(delta, paperDelta(authors...)...)
		}
		adj = adj.ApplyDelta(delta)
		got := PageRank(adj, Options{Start: prev.Scores})
		ref := threePassPageRank(adj, nil, prev.Scores)
		samePoint(t, "write "+strconv.Itoa(w), got, ref)
		cheb += got.Iterations
		power += ref.Iterations
		prev = got
	}
	t.Logf("30 warm writes: %d iterations, the power iteration %d", cheb, power)
	if 2*cheb > power {
		t.Fatalf("30 warm writes took %d iterations, the power iteration %d", cheb, power)
	}
}

// TestNegativeWeightRunsPowerIteration: a symmetric graph with a
// negative weight has no walk whose spectrum is known, so PageRank keeps
// the power iteration there, bit for bit.
func TestNegativeWeightRunsPowerIteration(t *testing.T) {
	adj := sparse.NewFromDense([][]float64{
		{0, 2, 1, 0},
		{2, 0, -1, 1},
		{1, -1, 0, 3},
		{0, 1, 3, 1},
	})
	if !adj.Symmetric() {
		t.Fatal("fixture is not symmetric")
	}
	sameResult(t, "negative weight", PageRank(adj, Options{}), threePassPageRank(adj, nil, nil))
}
