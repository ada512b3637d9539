package pathsim

import (
	"fmt"
	"math"
	"testing"

	"hinet/internal/dblp"
	"hinet/internal/hin"
	"hinet/internal/sparse"
	"hinet/internal/stats"
)

// toyNet: authors a0,a1 are prolific peers in venue v0; a2 is a small
// author also in v0; a3 publishes only in v1.
func toyNet() *hin.Network {
	n := hin.NewNetwork()
	for i := 0; i < 4; i++ {
		n.AddObject("author", string(rune('a'+i)))
	}
	n.AddObject("venue", "v0")
	n.AddObject("venue", "v1")
	paper := 0
	addPaper := func(author, venue int) {
		p := n.AddObject("paper", fmt.Sprintf("paper#%d", paper))
		n.AddLink("paper", p, "author", author, 1)
		n.AddLink("paper", p, "venue", venue, 1)
		paper++
	}
	for i := 0; i < 10; i++ {
		addPaper(0, 0)
	}
	for i := 0; i < 10; i++ {
		addPaper(1, 0)
	}
	addPaper(2, 0)
	for i := 0; i < 3; i++ {
		addPaper(3, 1)
	}
	return n
}

var apvpa = hin.MetaPath{"author", "paper", "venue", "paper", "author"}

func TestSimSelfIsOne(t *testing.T) {
	ix := NewIndex(toyNet(), apvpa)
	for a := 0; a < 4; a++ {
		if ix.diag[a] > 0 {
			if s := ix.Sim(a, a); math.Abs(s-1) > 1e-12 {
				t.Errorf("s(%d,%d) = %v", a, a, s)
			}
		}
	}
}

func TestSimSymmetric(t *testing.T) {
	ix := NewIndex(toyNet(), apvpa)
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if math.Abs(ix.Sim(a, b)-ix.Sim(b, a)) > 1e-12 {
				t.Fatalf("asymmetric at (%d,%d)", a, b)
			}
		}
	}
}

func TestPeersBeatUnbalancedNeighbors(t *testing.T) {
	ix := NewIndex(toyNet(), apvpa)
	// a0 and a1 both have 10 papers in v0 — peers. a2 has 1 paper in v0.
	// PathSim: s(a0,a1) > s(a0,a2) despite both sharing the venue.
	if ix.Sim(0, 1) <= ix.Sim(0, 2) {
		t.Errorf("peer score %v should beat unbalanced %v", ix.Sim(0, 1), ix.Sim(0, 2))
	}
	// Disconnected meta-path: zero.
	if ix.Sim(0, 3) != 0 {
		t.Errorf("cross-venue similarity = %v, want 0", ix.Sim(0, 3))
	}
}

func TestTopKOrderAndExclusion(t *testing.T) {
	ix := NewIndex(toyNet(), apvpa)
	top := ix.TopK(0, 3)
	if len(top) != 2 {
		t.Fatalf("topk = %v (a3 unreachable, self excluded)", top)
	}
	if top[0].ID != 1 || top[1].ID != 2 {
		t.Errorf("order = %v, want peer a1 first", top)
	}
	for _, p := range top {
		if p.ID == 0 {
			t.Error("query object must be excluded")
		}
	}
}

func TestAllScoresMatchesSim(t *testing.T) {
	ix := NewIndex(toyNet(), apvpa)
	scores := ix.AllScores(1)
	for y := 0; y < 4; y++ {
		want := ix.Sim(1, y)
		if y == 1 {
			want = 1
		}
		if math.Abs(scores[y]-want) > 1e-12 {
			t.Fatalf("AllScores[%d] = %v, want %v", y, scores[y], want)
		}
	}
}

func TestAsymmetricPathPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("asymmetric path should panic")
		}
	}()
	NewIndex(toyNet(), hin.MetaPath{"author", "paper", "venue"})
}

func TestOnDBLPCorpusSameAreaPeers(t *testing.T) {
	c := dblp.Generate(stats.NewRNG(1), dblp.Config{
		VenuesPerArea:  3,
		AuthorsPerArea: 40,
		TermsPerArea:   30,
		SharedTerms:    10,
		Papers:         600,
	})
	ix := NewIndex(c.Net, hin.MetaPath{dblp.TypeAuthor, dblp.TypePaper, dblp.TypeVenue, dblp.TypePaper, dblp.TypeAuthor})
	// For a busy author, most top-10 APVPA peers share the true area.
	pa := c.Net.Relation(dblp.TypePaper, dblp.TypeAuthor)
	deg := make([]float64, c.Net.Count(dblp.TypeAuthor))
	for p := 0; p < pa.Rows(); p++ {
		pa.Row(p, func(a int, v float64) { deg[a] += v })
	}
	query := stats.ArgMax(deg)
	hits := 0
	top := ix.TopK(query, 10)
	if len(top) < 10 {
		t.Fatalf("too few results: %d", len(top))
	}
	for _, p := range top {
		if c.AuthorArea[p.ID] == c.AuthorArea[query] {
			hits++
		}
	}
	if hits < 7 {
		t.Errorf("only %d/10 peers share the query's area", hits)
	}
}

// BatchTopK must return exactly what per-query TopK returns, under
// both the serial fallback and the forced-parallel path.
func TestBatchTopKMatchesTopK(t *testing.T) {
	c := dblp.Generate(stats.NewRNG(2), dblp.Config{
		VenuesPerArea:  3,
		AuthorsPerArea: 25,
		TermsPerArea:   20,
		SharedTerms:    8,
		Papers:         300,
	})
	ix := NewIndex(c.Net, hin.MetaPath{dblp.TypeAuthor, dblp.TypePaper, dblp.TypeVenue, dblp.TypePaper, dblp.TypeAuthor})
	queries := make([]int, c.Net.Count(dblp.TypeAuthor))
	for i := range queries {
		queries[i] = i
	}
	check := func() {
		t.Helper()
		batch := batchTopK(ix, queries, 5)
		if len(batch) != len(queries) {
			t.Fatalf("BatchTopK returned %d results for %d queries", len(batch), len(queries))
		}
		for i, q := range queries {
			want := ix.TopK(q, 5)
			if len(batch[i]) != len(want) {
				t.Fatalf("query %d: got %d pairs, want %d", q, len(batch[i]), len(want))
			}
			for j := range want {
				if batch[i][j] != want[j] {
					t.Fatalf("query %d rank %d: got %+v, want %+v", q, j, batch[i][j], want[j])
				}
			}
		}
	}
	check() // default knobs (serial on small indexes)
	oldW := sparse.Parallelism(0)
	oldT := sparse.SerialThreshold(0)
	sparse.Parallelism(4)
	sparse.SerialThreshold(1)
	defer func() {
		sparse.Parallelism(oldW)
		sparse.SerialThreshold(oldT)
	}()
	check() // forced parallel
}

func TestIndexAccessors(t *testing.T) {
	ix := NewIndex(toyNet(), apvpa)
	if ix.Dim() != 4 {
		t.Errorf("Dim = %d, want 4", ix.Dim())
	}
	if ix.NNZ() != ix.M.NNZ() || ix.NNZ() == 0 {
		t.Errorf("NNZ = %d (matrix %d)", ix.NNZ(), ix.M.NNZ())
	}
}
