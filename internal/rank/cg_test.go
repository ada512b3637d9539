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

// TestCGOnUndirectedGraph: on the co-author graph of the default corpus
// PageRank reaches the power iteration's fixed point in fewer
// iterations: cold, warm after a new paper, and personalized.
func TestCGOnUndirectedGraph(t *testing.T) {
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

// samePoint holds got to the power iteration's answer: the power
// iteration stops on an L∞ step under 1e-9 and CG on a tighter residual
// bound, so they agree to within a few of those.
func samePoint(t *testing.T, label string, got, power Result) {
	t.Helper()
	if d := sparse.MaxAbsDiff(got.Scores, power.Scores); d > 1e-8 {
		t.Fatalf("%s: %g from the power iteration's fixed point", label, d)
	}
	if s := sumOf(got.Scores); s < 1-1e-9 || s > 1+1e-9 {
		t.Fatalf("%s: scores sum to %v", label, s)
	}
}

// TestCGHalvesWarmIterations is the write path's case: the 4 000-author
// co-author graph, 30 writes of three papers each, PageRank warm from
// the previous write's scores. CG takes at most half the power
// iteration's iterations over the chain (≈ 400 against ≈ 1 160), and
// every write lands on the power iteration's fixed point.
func TestCGHalvesWarmIterations(t *testing.T) {
	adj := coauthorGraph(t, dblp.Config{AuthorsPerArea: 1000, Papers: 10_000})
	rng := stats.NewRNG(2)
	prev := PageRank(adj, Options{})
	var steps, power int
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
		steps += got.Iterations
		power += ref.Iterations
		prev = got
	}
	t.Logf("30 warm writes: %d iterations, the power iteration %d", steps, power)
	if 2*steps > power {
		t.Fatalf("30 warm writes took %d iterations, the power iteration %d", steps, power)
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

// tightPageRank runs the power iteration until its L∞ step is under
// 1e-15: a reference close enough to the fixed point to hold CG to 1e-9,
// which threePassPageRank, stopping at 1e-9, is not (on the fixture
// below it lies ≈ 3e-9 away).
func tightPageRank(adj *sparse.Matrix, restart []float64) []float64 {
	n, d := adj.Rows(), 0.85
	inv := adj.RowInvSums()
	tele := make([]float64, n)
	for i := range tele {
		tele[i] = 1 / float64(n)
	}
	if restart != nil {
		copy(tele, restart)
		sparse.ScaleVec(1/sumOf(tele), tele)
	}
	x, next := append([]float64(nil), tele...), make([]float64, n)
	for it := 0; it < 2000; it++ {
		adj.MulVecTNorm(x, inv, next)
		dm := 0.0
		for r := 0; r < n; r++ {
			if adj.RowNNZ(r) == 0 {
				dm += x[r]
			}
		}
		for i := range next {
			next[i] = d*(next[i]+dm*tele[i]) + (1-d)*tele[i]
		}
		x, next = next, x
		if sparse.MaxAbsDiff(x, next) < 1e-15 {
			break
		}
	}
	return x
}

// TestCGDanglingRows: isolated nodes — what a remove-node leaves of a
// co-author — are zero rows and zero columns. CG solves them as yᵢ = tᵢ
// and the y/Σy reduction sends their mass along the restart vector, as
// the power iteration does: uniform and personalized, cold and warm, CG
// lands within 1e-9 of the fixed point, and on the power iteration's
// answer.
func TestCGDanglingRows(t *testing.T) {
	full := coauthorGraph(t, dblp.Config{})
	n := full.Rows()
	isolated := func(i int) bool { return i%9 == 4 }
	var entries []sparse.Coord
	for r := 0; r < n; r++ {
		full.Row(r, func(c int, v float64) {
			if !isolated(r) && !isolated(c) {
				entries = append(entries, sparse.Coord{Row: r, Col: c, Val: v})
			}
		})
	}
	adj := sparse.NewFromCoords(n, n, entries)
	if !adj.Symmetric() || adj.RowNNZ(4) != 0 {
		t.Fatal("the fixture is not symmetric with zero rows")
	}
	edited := adj.ApplyDelta(paperDelta(1, n-2))
	restart := make([]float64, n)
	for i := 0; i < n; i += 5 {
		restart[i] = 1 + float64(i%3) // every ninth of them isolated
	}
	for _, c := range []struct {
		name    string
		restart []float64
	}{{"uniform", nil}, {"personalized", restart}} {
		cold := Personalized(adj, c.restart, Options{})
		warm := Personalized(edited, c.restart, Options{Start: cold.Scores})
		for _, tc := range []struct {
			label      string
			adj        *sparse.Matrix
			got, power Result
		}{
			{c.name + " cold", adj, cold, threePassPageRank(adj, c.restart, nil)},
			{c.name + " warm", edited, warm, threePassPageRank(edited, c.restart, cold.Scores)},
		} {
			if !tc.got.Converged || tc.got.Iterations >= tc.power.Iterations {
				t.Fatalf("%s: %d iterations (converged %v), the power iteration %d",
					tc.label, tc.got.Iterations, tc.got.Converged, tc.power.Iterations)
			}
			samePoint(t, tc.label, tc.got, tc.power)
			d := sparse.MaxAbsDiff(tc.got.Scores, tightPageRank(tc.adj, c.restart))
			t.Logf("%s: %d iterations (power %d), %.2g from the fixed point", tc.label, tc.got.Iterations, tc.power.Iterations, d)
			if d > 1e-9 {
				t.Errorf("%s: %g from the fixed point", tc.label, d)
			}
		}
	}
}

// TestPageRankAllocatesPerCallNotPerStep: a PageRank call on an
// undirected graph allocates its vectors once — cold or warm, the same
// allocations whether a tolerance of 1e-6 or 1e-13 sets the step count.
func TestPageRankAllocatesPerCallNotPerStep(t *testing.T) {
	adj := coauthorGraph(t, dblp.Config{})
	edited := adj.ApplyDelta(paperDelta(1, adj.Rows()-2))
	warmStart := PageRank(adj, Options{}).Scores
	for _, start := range [][]float64{nil, warmStart} {
		loose, tight := Options{Start: start, Tolerance: 1e-6}, Options{Start: start, Tolerance: 1e-13}
		few, many := PageRank(edited, loose).Iterations, PageRank(edited, tight).Iterations
		if many <= few {
			t.Fatalf("%d steps at 1e-6, %d at 1e-13: the fixture tells nothing", few, many)
		}
		fewAllocs := testing.AllocsPerRun(20, func() { PageRank(edited, loose) })
		manyAllocs := testing.AllocsPerRun(20, func() { PageRank(edited, tight) })
		t.Logf("warm %v: %d steps, %v allocations; %d steps, %v allocations", start != nil, few, fewAllocs, many, manyAllocs)
		if fewAllocs != manyAllocs {
			t.Errorf("PageRank allocates %v times in %d steps and %v in %d: something allocates per step",
				fewAllocs, few, manyAllocs, many)
		}
	}
}
