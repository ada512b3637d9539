package hin

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"hinet/internal/sparse"
)

// tinyDBLP builds the toy network used across these tests:
// 2 authors, 3 papers, 2 venues; a0 writes p0,p1; a1 writes p1,p2;
// p0,p1 in v0; p2 in v1.
func tinyDBLP() *Network {
	n := NewNetwork()
	a0 := n.AddObject("author", "alice")
	a1 := n.AddObject("author", "bob")
	p0 := n.AddObject("paper", "p0")
	p1 := n.AddObject("paper", "p1")
	p2 := n.AddObject("paper", "p2")
	v0 := n.AddObject("venue", "sigmod")
	v1 := n.AddObject("venue", "kdd")
	n.AddLink("paper", p0, "author", a0, 1)
	n.AddLink("paper", p1, "author", a0, 1)
	n.AddLink("paper", p1, "author", a1, 1)
	n.AddLink("paper", p2, "author", a1, 1)
	n.AddLink("paper", p0, "venue", v0, 1)
	n.AddLink("paper", p1, "venue", v0, 1)
	n.AddLink("paper", p2, "venue", v1, 1)
	return n
}

func TestObjectRegistration(t *testing.T) {
	n := NewNetwork()
	id := n.AddObject("author", "alice")
	again := n.AddObject("author", "alice")
	if id != again {
		t.Error("duplicate name should return same id")
	}
	if n.Count("author") != 1 {
		t.Errorf("Count = %d", n.Count("author"))
	}
	if n.Lookup("author", "alice") != id || n.Lookup("author", "nobody") != -1 {
		t.Error("Lookup wrong")
	}
	if n.Name("author", id) != "alice" {
		t.Error("Name wrong")
	}
}

// TestAddObjects: a batch gets contiguous ids in order and is found by
// name — into a fresh index, beside names already there, and into a
// clone's overlay — and a name that repeats or exists panics before the
// network changes.
func TestAddObjects(t *testing.T) {
	n := NewNetwork()
	if first := n.AddObjects("term", []string{"a", "b", "c"}); first != 0 || n.Count("term") != 3 {
		t.Fatalf("first batch: first=%d count=%d", first, n.Count("term"))
	}
	if first := n.AddObjects("term", []string{"d", "e"}); first != 3 || n.Count("term") != 5 {
		t.Fatalf("second batch: first=%d count=%d", first, n.Count("term"))
	}
	c := n.Clone()
	if first := c.AddObjects("term", []string{"f"}); first != 5 || c.Count("term") != 6 || n.Count("term") != 5 {
		t.Fatalf("clone's batch: first=%d, clone %d terms, parent %d", first, c.Count("term"), n.Count("term"))
	}
	if first := c.AddObjects("term", nil); first != 6 {
		t.Fatalf("empty batch: first=%d", first)
	}
	for id, name := range []string{"a", "b", "c", "d", "e", "f"} {
		if c.Lookup("term", name) != id || c.Name("term", id) != name {
			t.Fatalf("clone: %q at %d, Name(%d) = %q", name, c.Lookup("term", name), id, c.Name("term", id))
		}
	}
	if n.Lookup("term", "f") != -1 {
		t.Fatal("the clone's name reached its parent")
	}
	for _, names := range [][]string{{"g", "g"}, {"g", "a"}, {"f"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddObjects(%q) did not panic", names)
				}
			}()
			c.AddObjects("term", names)
		}()
		if c.Count("term") != 6 || c.Lookup("term", "g") != -1 {
			t.Fatalf("AddObjects(%q) changed the network before panicking", names)
		}
	}
}

// TestRelationBuildsOnce: goroutines asking a fresh network for one
// orientation at once share one matrix, built once. The relation is big
// enough that a build takes longer than the goroutines take to arrive.
func TestRelationBuildsOnce(t *testing.T) {
	n := NewNetwork()
	const papers, authors, perPaper = 20_000, 1_000, 10
	for _, tc := range []struct {
		t     Type
		count int
	}{{"paper", papers}, {"author", authors}} {
		names := make([]string, tc.count)
		for i := range names {
			names[i] = fmt.Sprintf("%s%d", tc.t, i)
		}
		n.AddObjects(tc.t, names)
	}
	links := make([]EdgeDelta, 0, papers*perPaper)
	for p := 0; p < papers; p++ {
		for j := 0; j < perPaper; j++ {
			links = append(links, EdgeDelta{Src: p, Dst: (p*7 + j*13) % authors, W: 1})
		}
	}
	if err := n.ApplyEdgeDeltas("paper", "author", links); err != nil {
		t.Fatal(err)
	}
	const readers = 8
	got := make([]*sparse.Matrix, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = n.Relation("author", "paper")
		}()
	}
	close(start)
	wg.Wait()
	for i, m := range got {
		if m != got[0] {
			t.Fatalf("reader %d got a matrix of its own", i)
		}
	}
	if n.relBuilds != 1 {
		t.Fatalf("%d builds of one orientation, want 1", n.relBuilds)
	}
}

func TestRelationSymmetricAcrossOrientation(t *testing.T) {
	n := tinyDBLP()
	pa := n.Relation("paper", "author")
	ap := n.Relation("author", "paper")
	if pa.Rows() != 3 || pa.Cols() != 2 || ap.Rows() != 2 || ap.Cols() != 3 {
		t.Fatal("relation dims wrong")
	}
	for p := 0; p < 3; p++ {
		for a := 0; a < 2; a++ {
			if pa.At(p, a) != ap.At(a, p) {
				t.Fatalf("orientation mismatch at paper %d author %d", p, a)
			}
		}
	}
	if pa.At(1, 0) != 1 || pa.At(1, 1) != 1 || pa.At(0, 1) != 0 {
		t.Error("relation content wrong")
	}
}

func TestSchemaEdges(t *testing.T) {
	n := tinyDBLP()
	edges := n.SchemaEdges()
	if len(edges) != 2 {
		t.Fatalf("schema edges = %v", edges)
	}
	// canonical order: author-paper then paper-venue
	if edges[0] != [2]Type{"author", "paper"} || edges[1] != [2]Type{"paper", "venue"} {
		t.Errorf("schema edges = %v", edges)
	}
}

func TestBipartiteView(t *testing.T) {
	n := tinyDBLP()
	b := n.Bipartite("venue", "author")
	if b.W.Rows() != 2 || b.W.Cols() != 2 {
		t.Fatalf("bipartite dims %dx%d", b.W.Rows(), b.W.Cols())
	}
	// venue-author has no direct links in this schema
	if b.W.NNZ() != 0 {
		t.Error("no direct venue-author links expected")
	}
	if b.WXX != nil {
		t.Error("no homogeneous venue links expected")
	}
	// add venue-venue link, check WXX appears
	n.AddLink("venue", 0, "venue", 1, 2)
	b = n.Bipartite("venue", "author")
	if b.WXX == nil || b.WXX.At(0, 1) != 2 {
		t.Error("WXX missing")
	}
}

func TestStarView(t *testing.T) {
	n := tinyDBLP()
	s := n.Star("paper", "author", "venue")
	if s.Center != "paper" || len(s.Rel) != 2 {
		t.Fatal("star structure wrong")
	}
	if s.Rel[0].Rows() != 3 || s.Rel[0].Cols() != 2 {
		t.Error("star author relation dims wrong")
	}
	if s.Rel[1].At(2, 1) != 1 {
		t.Error("p2 should link kdd")
	}
}

func TestStarMissingRelationPanics(t *testing.T) {
	n := tinyDBLP()
	defer func() {
		if recover() == nil {
			t.Error("missing star relation should panic")
		}
	}()
	n.Star("paper", "author", "term")
}

func TestMetaPathString(t *testing.T) {
	p := MetaPath{"author", "paper", "author"}
	if p.String() != "author-paper-author" {
		t.Errorf("String = %q", p.String())
	}
	if !p.Symmetric() {
		t.Error("APA should be symmetric")
	}
	if (MetaPath{"author", "paper", "venue"}).Symmetric() {
		t.Error("APV should not be symmetric")
	}
}

func TestCommutingMatrixCoauthor(t *testing.T) {
	n := tinyDBLP()
	m := n.CommutingMatrix(MetaPath{"author", "paper", "author"})
	// alice-bob share exactly p1.
	if m.At(0, 1) != 1 || m.At(1, 0) != 1 {
		t.Errorf("co-author count = %v", m.At(0, 1))
	}
	// diagonal = paper counts.
	if m.At(0, 0) != 2 || m.At(1, 1) != 2 {
		t.Errorf("diagonal = %v,%v", m.At(0, 0), m.At(1, 1))
	}
}

func TestProjectionGraph(t *testing.T) {
	n := tinyDBLP()
	g, err := n.Projection(MetaPath{"author", "paper", "author"})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || g.M() != 1 {
		t.Fatalf("projection N=%d M=%d", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) {
		t.Error("co-author edge missing")
	}
	if g.Label(0) != "alice" {
		t.Errorf("label = %q", g.Label(0))
	}
}

func TestProjectionRequiresSymmetry(t *testing.T) {
	n := tinyDBLP()
	if g, err := n.Projection(MetaPath{"author", "paper", "venue"}); err == nil || g != nil {
		t.Errorf("asymmetric projection = %v, %v; want an error", g, err)
	}
}

// TestErrorVariants pins the non-panicking boundary: every …E or …Ctx
// variant returns descriptive errors for the inputs the wrappers panic on.
func TestErrorVariants(t *testing.T) {
	n := tinyDBLP()
	if _, err := n.CommutingMatrixCtx(context.Background(), MetaPath{"author"}); err == nil {
		t.Error("short path accepted")
	}
	if _, err := n.CommutingMatrixCtx(context.Background(), MetaPath{"author", "nosuch"}); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := n.CommutingMatrixCtx(context.Background(), MetaPath{"author", "venue"}); err == nil {
		t.Error("schema-less hop accepted")
	}
	if _, err := n.Projection(MetaPath{"author", "paper", "venue"}); err == nil {
		t.Error("asymmetric projection accepted")
	}
	if _, err := n.Projection(nil); err == nil {
		t.Error("empty projection accepted")
	}
	if _, err := n.StarE("paper", "author", "term"); err == nil {
		t.Error("missing star relation accepted")
	}
	m, err := n.CommutingMatrixCtx(context.Background(), MetaPath{"author", "paper", "author"})
	if err != nil || m.At(0, 1) != 1 {
		t.Fatalf("valid path: %v, %v", m, err)
	}
}

func TestCommutingMatrixShortPathPanics(t *testing.T) {
	n := tinyDBLP()
	defer func() {
		if recover() == nil {
			t.Error("short path should panic through the wrapper")
		}
	}()
	n.CommutingMatrix(MetaPath{"author"})
}

func TestParseMetaPath(t *testing.T) {
	n := tinyDBLP()
	p, err := n.ParseMetaPath("a-p-a")
	if err != nil || p.String() != "author-paper-author" {
		t.Fatalf("ParseMetaPath = %v, %v", p, err)
	}
	if _, err := n.ParseMetaPath("a-x-a"); err == nil {
		t.Error("unknown token accepted")
	}
	if _, err := n.ParseMetaPath("a-v"); err == nil {
		t.Error("schema-less hop accepted")
	}
}

// TestEngineInvalidationOnMutation pins the epoch contract: a network
// edit after a CommutingMatrix call must invalidate the engine's
// materialization cache, never serve the stale product.
func TestEngineInvalidationOnMutation(t *testing.T) {
	n := tinyDBLP()
	apa := MetaPath{"author", "paper", "author"}
	before := n.CommutingMatrix(apa)
	if before.At(0, 1) != 1 {
		t.Fatalf("baseline co-author count = %v", before.At(0, 1))
	}
	// bob joins p0, which alice wrote: the pair now shares two papers.
	n.AddLink("paper", 0, "author", 1, 1)
	after := n.CommutingMatrix(apa)
	if after.At(0, 1) != 2 {
		t.Fatalf("post-mutation co-author count = %v, want 2 (stale cache?)", after.At(0, 1))
	}
	// Unchanged network: the same materialization comes back.
	if again := n.CommutingMatrix(apa); again != after {
		t.Error("unchanged network should serve the cached matrix")
	}
}

// TestCommutingMatrixMatchesNaive is the hin-level equivalence check:
// the engine's planned/Gram evaluation must equal the strict
// left-to-right product of Relation matrices (exactly — tinyDBLP's
// weights are integers).
func TestCommutingMatrixMatchesNaive(t *testing.T) {
	n := tinyDBLP()
	paths := []MetaPath{
		{"author", "paper", "author"},
		{"author", "paper", "venue"},
		{"venue", "paper", "author"},
		{"author", "paper", "venue", "paper", "author"},
		{"venue", "paper", "author", "paper", "venue"},
		{"paper", "author", "paper", "venue", "paper"},
	}
	for _, p := range paths {
		naive := n.Relation(p[0], p[1])
		for i := 1; i < len(p)-1; i++ {
			naive = naive.Mul(n.Relation(p[i], p[i+1]))
		}
		got := n.CommutingMatrix(p)
		if got.Rows() != naive.Rows() || got.Cols() != naive.Cols() || got.NNZ() != naive.NNZ() {
			t.Fatalf("%s: shape/nnz mismatch", p.String())
		}
		for r := 0; r < got.Rows(); r++ {
			for c := 0; c < got.Cols(); c++ {
				if got.At(r, c) != naive.At(r, c) {
					t.Fatalf("%s: (%d,%d) = %v, want %v", p.String(), r, c, got.At(r, c), naive.At(r, c))
				}
			}
		}
	}
	if st := n.PathEngine().Stats(); st.Grams == 0 {
		t.Fatalf("symmetric paths did not exercise Gram: %+v", st)
	}
}

func TestHomogeneousView(t *testing.T) {
	n := tinyDBLP()
	g, offset := n.Homogeneous()
	if g.N() != 7 {
		t.Fatalf("homogeneous N = %d, want 7", g.N())
	}
	if g.M() != 7 {
		t.Errorf("homogeneous M = %d, want 7 links", g.M())
	}
	// paper p0 connects author alice.
	p0 := offset["paper"] + 0
	a0 := offset["author"] + 0
	if !g.HasEdge(p0, a0) {
		t.Error("typed link lost in homogeneous view")
	}
	if g.Label(a0) != "author:alice" {
		t.Errorf("label = %q", g.Label(a0))
	}
}

func TestLinkCountAndHasRelation(t *testing.T) {
	n := tinyDBLP()
	if n.LinkCount("paper", "author") != 4 {
		t.Errorf("LinkCount = %d", n.LinkCount("paper", "author"))
	}
	if !n.HasRelation("author", "paper") {
		t.Error("HasRelation should merge orientations")
	}
	if n.HasRelation("author", "venue") {
		t.Error("no author-venue relation expected")
	}
}
