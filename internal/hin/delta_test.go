package hin

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"hinet/internal/sparse"
)

// replayNetwork rebuilds a fresh network by replaying ops, the
// from-scratch reference every incremental path must match.
type op struct {
	src  Type
	sid  int
	dst  Type
	did  int
	w    float64
	node bool   // when set, this op is AddObject(src, name)
	name string // node name
}

func replay(ops []op) *Network {
	n := NewNetwork()
	for _, o := range ops {
		if o.node {
			n.AddObject(o.src, o.name)
		} else {
			n.AddLink(o.src, o.sid, o.dst, o.did, o.w)
		}
	}
	return n
}

func sameMatrix(t *testing.T, what string, a, b interface {
	Rows() int
	Cols() int
	Dense() [][]float64
}) {
	t.Helper()
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		t.Fatalf("%s dims: %dx%d vs %dx%d", what, a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	if !reflect.DeepEqual(a.Dense(), b.Dense()) {
		t.Fatalf("%s entries differ", what)
	}
}

// TestApplyEdgeDeltasEquivalence drives randomized delta batches —
// interleaved with queries so the incremental merge path (not a cold
// rebuild) is what's exercised — and checks every relation and
// commuting matrix bitwise against a replayed from-scratch network.
func TestApplyEdgeDeltasEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		inc := NewNetwork()
		var ops []op
		addObj := func(ty Type, name string) {
			inc.AddObject(ty, name)
			ops = append(ops, op{src: ty, node: true, name: name})
		}
		nA, nP, nV := 4+rng.Intn(5), 6+rng.Intn(8), 2+rng.Intn(3)
		for i := 0; i < nA; i++ {
			addObj("author", string(rune('a'+i)))
		}
		for i := 0; i < nP; i++ {
			addObj("paper", string(rune('A'+i)))
		}
		for i := 0; i < nV; i++ {
			addObj("venue", string(rune('u'+i)))
		}
		addLink := func(s Type, si int, d Type, di int, w float64) {
			inc.AddLink(s, si, d, di, w)
			ops = append(ops, op{src: s, sid: si, dst: d, did: di, w: w})
		}
		for i := 0; i < 15+rng.Intn(20); i++ {
			addLink("paper", rng.Intn(nP), "author", rng.Intn(nA), float64(1+rng.Intn(3)))
		}
		for i := 0; i < nP; i++ {
			addLink("paper", i, "venue", rng.Intn(nV), 1)
		}

		apa := MetaPath{"author", "paper", "author"}
		apvpa := MetaPath{"author", "paper", "venue", "paper", "author"}
		// Materialize caches so later batches exercise the merge path.
		inc.CommutingMatrix(apa)
		inc.CommutingMatrix(apvpa)

		for batch := 0; batch < 4; batch++ {
			// Occasionally grow the object sets mid-stream.
			if rng.Intn(2) == 0 {
				addObj("author", string(rune('a'+nA)))
				nA++
			}
			var deltas []EdgeDelta
			for i := 0; i < 1+rng.Intn(8); i++ {
				d := EdgeDelta{Src: rng.Intn(nP), Dst: rng.Intn(nA), W: float64(rng.Intn(5) - 2)}
				if rng.Intn(3) == 0 {
					// Exact removal of the current total weight.
					d.W = -inc.Relation("paper", "author").At(d.Src, d.Dst)
				}
				if d.W == 0 {
					continue
				}
				deltas = append(deltas, d)
			}
			if err := inc.ApplyEdgeDeltas("paper", "author", deltas); err != nil {
				t.Fatal(err)
			}
			for _, d := range deltas {
				ops = append(ops, op{src: "paper", sid: d.Src, dst: "author", did: d.Dst, w: d.W})
			}

			ref := replay(ops)
			sameMatrix(t, "paper-author", inc.Relation("paper", "author"), ref.Relation("paper", "author"))
			sameMatrix(t, "author-paper", inc.Relation("author", "paper"), ref.Relation("author", "paper"))
			sameMatrix(t, "paper-venue", inc.Relation("paper", "venue"), ref.Relation("paper", "venue"))
			sameMatrix(t, "APA", inc.CommutingMatrix(apa), ref.CommutingMatrix(apa))
			sameMatrix(t, "APVPA", inc.CommutingMatrix(apvpa), ref.CommutingMatrix(apvpa))
		}
	}
}

func TestApplyEdgeDeltasValidation(t *testing.T) {
	n := NewNetwork()
	n.AddObject("a", "x")
	n.AddObject("b", "y")
	if err := n.ApplyEdgeDeltas("a", "b", []EdgeDelta{{Src: 0, Dst: 5, W: 1}}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	// Nothing applied: the relation is still empty.
	if n.Relation("a", "b").NNZ() != 0 {
		t.Fatal("failed batch must not mutate the network")
	}
	if err := n.ApplyEdgeDeltas("a", "b", nil); err != nil {
		t.Fatal(err)
	}
}

// TestSelectiveInvalidation checks that a delta on one relation keeps
// unrelated cached products alive (same pointer) while refreshing the
// affected ones.
func TestSelectiveInvalidation(t *testing.T) {
	n := NewNetwork()
	n.AddObject("author", "a0")
	n.AddObject("author", "a1")
	n.AddObject("paper", "p0")
	n.AddObject("paper", "p1")
	n.AddObject("venue", "v0")
	n.AddObject("term", "t0")
	n.AddLink("paper", 0, "author", 0, 1)
	n.AddLink("paper", 1, "author", 1, 1)
	n.AddLink("paper", 0, "venue", 0, 1)
	n.AddLink("paper", 1, "venue", 0, 1)
	n.AddLink("paper", 0, "term", 0, 1)

	apa := n.CommutingMatrix(MetaPath{"author", "paper", "author"})
	tpt := n.CommutingMatrix(MetaPath{"term", "paper", "term"})
	vpv := n.CommutingMatrix(MetaPath{"venue", "paper", "venue"})

	// A paper-author delta must not disturb the term/venue products.
	if err := n.ApplyEdgeDeltas("paper", "author", []EdgeDelta{{Src: 1, Dst: 0, W: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := n.CommutingMatrix(MetaPath{"term", "paper", "term"}); got != tpt {
		t.Fatal("T-P-T should survive a paper-author delta")
	}
	if got := n.CommutingMatrix(MetaPath{"venue", "paper", "venue"}); got != vpv {
		t.Fatal("V-P-V should survive a paper-author delta")
	}
	if got := n.CommutingMatrix(MetaPath{"author", "paper", "author"}); got == apa {
		t.Fatal("A-P-A must be rematerialized after a paper-author delta")
	}
	// Correct value: a0 and a1 now share paper p1.
	if got := n.CommutingMatrix(MetaPath{"author", "paper", "author"}).At(0, 1); got != 1 {
		t.Fatalf("A-P-A[0][1] = %v, want 1", got)
	}
}

// TestCloneIsolation checks the copy-on-write contract: mutating a
// clone never changes what the parent serves, and the clone starts
// with the parent's warm caches.
func TestCloneIsolation(t *testing.T) {
	n := NewNetwork()
	n.AddObject("author", "a0")
	n.AddObject("author", "a1")
	n.AddObject("paper", "p0")
	n.AddLink("paper", 0, "author", 0, 1)
	apa := n.CommutingMatrix(MetaPath{"author", "paper", "author"})
	pa := n.Relation("paper", "author")
	paBits := matrixBits(pa)

	c := n.Clone()
	// Clone serves the shared matrices without recomputation.
	if c.Relation("paper", "author") != pa {
		t.Fatal("clone should share the cached relation matrix")
	}
	if c.CommutingMatrix(MetaPath{"author", "paper", "author"}) != apa {
		t.Fatal("clone should share the cached commuting matrix")
	}

	// Mutate the clone: new author, new paper, new links.
	c.AddObject("author", "a2")
	c.AddObject("paper", "p1")
	if err := c.ApplyEdgeDeltas("paper", "author", []EdgeDelta{
		{Src: 1, Dst: 0, W: 1}, {Src: 1, Dst: 2, W: 1},
	}); err != nil {
		t.Fatal(err)
	}

	// Parent is untouched.
	if n.Count("author") != 2 || n.Count("paper") != 1 {
		t.Fatalf("parent counts changed: %d authors, %d papers", n.Count("author"), n.Count("paper"))
	}
	if n.Relation("paper", "author") != pa {
		t.Fatal("parent relation cache must be unaffected")
	}
	if !slices.Equal(matrixBits(pa), paBits) {
		t.Fatal("the clone's merge changed the parent's paper-author matrix")
	}

	// Clone state matches a replayed build.
	ref := NewNetwork()
	ref.AddObject("author", "a0")
	ref.AddObject("author", "a1")
	ref.AddObject("paper", "p0")
	ref.AddLink("paper", 0, "author", 0, 1)
	ref.AddObject("author", "a2")
	ref.AddObject("paper", "p1")
	ref.AddLink("paper", 1, "author", 0, 1)
	ref.AddLink("paper", 1, "author", 2, 1)
	sameMatrix(t, "clone paper-author", c.Relation("paper", "author"), ref.Relation("paper", "author"))
	sameMatrix(t, "clone APA", c.CommutingMatrix(MetaPath{"author", "paper", "author"}), ref.CommutingMatrix(MetaPath{"author", "paper", "author"}))
	if c.Lookup("author", "a2") != 2 || n.Lookup("author", "a2") != -1 {
		t.Fatal("name index isolation violated")
	}

	t.Run("siblings", func(t *testing.T) {
		parent := scriptedParent()
		before := replay(parent.ops)
		left, right := parent.fork(), parent.fork()
		left.grow("l", 1) // both before either outgrows the shared arrays
		right.grow("r", 1)
		left.grow("ll", 30)
		right.grow("rr", 50)
		sameNetwork(t, "left", left.n, replay(left.ops))
		sameNetwork(t, "right", right.n, replay(right.ops))
		sameNetwork(t, "parent", parent.n, before)
		if left.n.Lookup("author", "r0-author") != -1 || right.n.Lookup("author", "l0-author") != -1 {
			t.Fatal("a clone sees its sibling's names")
		}
	})

	t.Run("dropped clone", func(t *testing.T) {
		parent := scriptedParent()
		before := replay(parent.ops)
		parent.fork().grow("failed", 4) // the batch that failed validation half way
		next := parent.fork()
		next.grow("ok", 2)
		sameNetwork(t, "next", next.n, replay(next.ops))
		sameNetwork(t, "parent", parent.n, before)
	})

	t.Run("chain", func(t *testing.T) {
		cur := scriptedParent()
		arrays := map[any]bool{}
		for i := 0; i < 200; i++ {
			cur = cur.fork()
			cur.grow(fmt.Sprintf("c%d", i), 1)
			for _, ns := range cur.n.names {
				arrays[&ns.s[0]] = true
			}
			for _, r := range cur.n.rels {
				if r.pending() {
					t.Fatal("a merge into a relation already read logged its links")
				}
			}
		}
		sameNetwork(t, "chain", cur.n, replay(cur.ops))
		// Three name lists of ≈ 200 entries, grown by append's policy
		// from a handful: about eight arrays each, where clipping made 200.
		if lists := len(cur.n.names); len(arrays) > 12*lists {
			t.Fatalf("%d lists went through %d backing arrays over 200 clones", lists, len(arrays))
		}
	})

	t.Run("readers beside the writer", func(t *testing.T) {
		parent := scriptedParent()
		want := replay(parent.ops)
		done := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if parent.n.Lookup("author", "p1-author") != 1 || parent.n.Lookup("author", "w0-author") != -1 ||
						!slices.Equal(parent.n.Names("paper"), want.Names("paper")) ||
						parent.n.Relation("paper", "author").NNZ() != want.Relation("paper", "author").NNZ() {
						t.Error("parent changed under its readers")
						return
					}
					if g, _ := parent.n.Homogeneous(); g.N() != 3*41 {
						t.Errorf("parent's homogeneous view has %d nodes", g.N())
						return
					}
				}
			}()
		}
		child := parent.fork()
		child.grow("w", 1)
		if &child.n.names["author"].s[0] != &parent.n.names["author"].s[0] {
			t.Fatal("the first clone did not extend the parent's array in place")
		}
		child.grow("x", 50) // past the arrays' capacity
		close(done)
		wg.Wait()
		sameNetwork(t, "child", child.n, replay(child.ops))
		sameNetwork(t, "parent", parent.n, want)
	})

	t.Run("index fold", func(t *testing.T) {
		cur := NewNetwork()
		for i := 0; i < 2*foldShare; i++ {
			cur.AddObject("term", fmt.Sprintf("t%d", i))
		}
		base, folds := cur.index["term"].base, 0
		for i := 0; i < 8; i++ {
			cur = cur.Clone()
			if b := cur.index["term"].base; b != base {
				base, folds = b, folds+1
			}
			id := cur.AddObject("term", fmt.Sprintf("added%d", i))
			if again := cur.AddObject("term", fmt.Sprintf("added%d", i)); again != id || cur.AddObject("term", "t3") != 3 {
				t.Fatalf("step %d: duplicate AddObject made a new object", i)
			}
			first := cur.AddObjects("term", []string{fmt.Sprintf("term#%d", id+1), fmt.Sprintf("term#%d", id+2)})
			if cur.Count("term") != 2*foldShare+3*(i+1) || first != id+1 {
				t.Fatalf("step %d: %d terms, batch ids from %d", i, cur.Count("term"), first)
			}
			for id, name := range cur.Names("term") {
				if cur.Lookup("term", name) != id {
					t.Fatalf("step %d: Lookup(%q) = %d, want %d", i, name, cur.Lookup("term", name), id)
				}
			}
			if cur.Lookup("term", fmt.Sprintf("added%d", i+1)) != -1 || cur.Lookup("term", fmt.Sprintf("term#%d", first+2)) != -1 {
				t.Fatalf("step %d: a name not added yet was found", i)
			}
		}
		if folds == 0 || folds == 8 {
			t.Fatalf("%d folds in 8 clones: want some, not one per clone", folds)
		}
	})
}

// scripted is a network beside the ops that built it, so any clone can be
// compared with a from-scratch replay of its own history.
type scripted struct {
	n   *Network
	ops []op
}

func (s *scripted) fork() *scripted { return &scripted{n: s.n.Clone(), ops: slices.Clone(s.ops)} }

func (s *scripted) node(ty Type, name string) int {
	s.ops = append(s.ops, op{src: ty, node: true, name: name})
	return s.n.AddObject(ty, name)
}

func (s *scripted) link(src Type, sid int, dst Type, did int) {
	s.ops = append(s.ops, op{src: src, sid: sid, dst: dst, did: did, w: 1})
	if err := s.n.ApplyEdgeDeltas(src, dst, []EdgeDelta{{Src: sid, Dst: did, W: 1}}); err != nil {
		panic(err)
	}
}

// grow adds count papers, each with a new author and a new venue and a
// link to both and back to author 0: every name list grows, and two
// relations take links.
func (s *scripted) grow(prefix string, count int) {
	for i := 0; i < count; i++ {
		a := s.node("author", fmt.Sprintf("%s%d-author", prefix, i))
		p := s.node("paper", fmt.Sprintf("%s%d-paper", prefix, i))
		v := s.node("venue", fmt.Sprintf("%s%d-venue", prefix, i))
		s.link("paper", p, "author", a)
		s.link("paper", p, "author", 0)
		s.link("paper", p, "venue", v)
	}
}

// scriptedParent is a network as a write leaves it: relation matrices
// warm, every list with room behind its end, a frozen index base and an
// overlay too small to fold.
func scriptedParent() *scripted {
	s := &scripted{n: NewNetwork()}
	s.grow("p", 40)
	s.n.CommutingMatrix(MetaPath{"author", "paper", "venue", "paper", "author"})
	s = s.fork()
	s.grow("q", 1)
	return s
}

// matrixBits flattens a matrix to its dimensions and, row by row, its
// entry count, columns and value bits.
func matrixBits(m *sparse.Matrix) []uint64 {
	out := []uint64{uint64(m.Rows()), uint64(m.Cols())}
	for r := 0; r < m.Rows(); r++ {
		cols, vals := m.RowEntries(r)
		out = append(out, uint64(len(cols)))
		for i, c := range cols {
			out = append(out, uint64(c), math.Float64bits(vals[i]))
		}
	}
	return out
}

// sameNetwork compares names, name index, schema and relation bits.
func sameNetwork(t *testing.T, what string, got, want *Network) {
	t.Helper()
	if !slices.Equal(got.Types(), want.Types()) {
		t.Fatalf("%s: types %v, want %v", what, got.Types(), want.Types())
	}
	for _, a := range want.Types() {
		if !slices.Equal(got.Names(a), want.Names(a)) {
			t.Fatalf("%s: %s names %v, want %v", what, a, got.Names(a), want.Names(a))
		}
		for id, name := range want.Names(a) {
			if got.Lookup(a, name) != id {
				t.Fatalf("%s: Lookup(%s, %q) = %d, want %d", what, a, name, got.Lookup(a, name), id)
			}
		}
		for _, b := range want.Types() {
			if got.HasRelation(a, b) != want.HasRelation(a, b) {
				t.Fatalf("%s: HasRelation(%s, %s) = %v, want %v", what, a, b, got.HasRelation(a, b), want.HasRelation(a, b))
			}
			if w := want.Relation(a, b); !slices.Equal(matrixBits(got.Relation(a, b)), matrixBits(w)) {
				t.Fatalf("%s: %s-%s relation bits differ", what, a, b)
			}
		}
	}
}
