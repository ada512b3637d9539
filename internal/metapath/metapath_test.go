package metapath

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hinet/internal/sparse"
)

// mapSource is a hermetic Source over explicit matrices. Relation
// returns the stored orientation or its exact transpose, matching the
// contract hin.Network provides.
type mapSource struct {
	types  []string
	counts map[string]int
	rels   map[[2]string]*sparse.Matrix
}

func (s *mapSource) Types() []string       { return s.types }
func (s *mapSource) HasType(t string) bool { _, ok := s.counts[t]; return ok }
func (s *mapSource) Count(t string) int    { return s.counts[t] }

func (s *mapSource) HasRelation(a, b string) bool {
	_, ok := s.rels[[2]string{a, b}]
	if !ok {
		_, ok = s.rels[[2]string{b, a}]
	}
	return ok
}

func (s *mapSource) Relation(a, b string) *sparse.Matrix {
	if m, ok := s.rels[[2]string{a, b}]; ok {
		return m
	}
	if m, ok := s.rels[[2]string{b, a}]; ok {
		return m.Transpose()
	}
	return sparse.NewFromCoords(s.counts[a], s.counts[b], nil)
}

func (s *mapSource) RelationBytes() int64 {
	var n int64
	for _, m := range s.rels {
		n += matrixBytes(int64(m.Rows()), int64(m.NNZ()))
	}
	return n
}

func (s *mapSource) addRel(rng *rand.Rand, a, b string, links int) {
	var entries []sparse.Coord
	for i := 0; i < links; i++ {
		entries = append(entries, sparse.Coord{
			Row: rng.Intn(s.counts[a]),
			Col: rng.Intn(s.counts[b]),
			Val: float64(1 + rng.Intn(3)), // integer weights ⇒ exact products
		})
	}
	s.rels[[2]string{a, b}] = sparse.NewFromCoords(s.counts[a], s.counts[b], entries)
}

// randomSource builds a random star-ish schema: k types, every type
// linked to type 0, plus a few extra random edges.
func randomSource(rng *rand.Rand) *mapSource {
	k := 3 + rng.Intn(3)
	s := &mapSource{counts: make(map[string]int), rels: make(map[[2]string]*sparse.Matrix)}
	for i := 0; i < k; i++ {
		t := fmt.Sprintf("t%d", i)
		s.types = append(s.types, t)
		s.counts[t] = 3 + rng.Intn(10)
	}
	for i := 1; i < k; i++ {
		s.addRel(rng, s.types[0], s.types[i], 5+rng.Intn(20))
	}
	for e := 0; e < rng.Intn(3); e++ {
		a, b := s.types[rng.Intn(k)], s.types[rng.Intn(k)]
		if a != b && !s.HasRelation(a, b) {
			s.addRel(rng, a, b, 5+rng.Intn(15))
		}
	}
	return s
}

// randomWalkPath walks the schema graph for a random path of the given
// relation count.
func randomWalkPath(rng *rand.Rand, s *mapSource, rels int) []string {
	path := []string{s.types[rng.Intn(len(s.types))]}
	for len(path) <= rels {
		var nbrs []string
		for _, t := range s.types {
			if t != path[len(path)-1] && s.HasRelation(path[len(path)-1], t) {
				nbrs = append(nbrs, t)
			}
		}
		if len(nbrs) == 0 {
			path[0] = s.types[rng.Intn(len(s.types))]
			path = path[:1]
			continue
		}
		path = append(path, nbrs[rng.Intn(len(nbrs))])
	}
	return path
}

// naiveCommute is the pre-engine evaluation: strict left-to-right.
func naiveCommute(s Source, path []string) *sparse.Matrix {
	m := s.Relation(path[0], path[1])
	for i := 1; i+1 < len(path); i++ {
		m, _ = m.MulCtx(context.Background(), s.Relation(path[i], path[i+1]))
	}
	return m
}

// sameMatrix asserts exact equality (the random sources use integer
// weights, so planned and Gram-factored products must agree bitwise
// with the naive order).
func sameMatrix(t *testing.T, label string, got, want *sparse.Matrix) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	if got.NNZ() != want.NNZ() {
		t.Fatalf("%s: nnz %d, want %d", label, got.NNZ(), want.NNZ())
	}
	for r := 0; r < got.Rows(); r++ {
		for c := 0; c < got.Cols(); c++ {
			if got.At(r, c) != want.At(r, c) {
				t.Fatalf("%s: (%d,%d) = %v, want %v", label, r, c, got.At(r, c), want.At(r, c))
			}
		}
	}
}

// TestCommuteMatchesNaiveRandomized is the engine's core equivalence
// property: across random schemas, seeds and walks — including the
// symmetric paths that trigger Gram factorization — the planned product
// equals the naive left-to-right product exactly.
func TestCommuteMatchesNaiveRandomized(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := randomSource(rng)
		e := New(src)
		for trial := 0; trial < 6; trial++ {
			path := randomWalkPath(rng, src, 1+rng.Intn(4))
			got, err := e.CommuteCtx(context.Background(), path)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, path, err)
			}
			sameMatrix(t, fmt.Sprintf("seed %d path %v", seed, path), got, naiveCommute(src, path))

			// Mirror the walk into a symmetric path: exercises the Gram
			// kernel and half-path caching.
			sym := append([]string(nil), path...)
			for i := len(path) - 2; i >= 0; i-- {
				sym = append(sym, path[i])
			}
			got, err = e.CommuteCtx(context.Background(), sym)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, sym, err)
			}
			sameMatrix(t, fmt.Sprintf("seed %d sym %v", seed, sym), got, naiveCommute(src, sym))

			// And the reverse orientation (served by transpose).
			rev := make([]string, len(path))
			for i, ty := range path {
				rev[len(path)-1-i] = ty
			}
			got, err = e.CommuteCtx(context.Background(), rev)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, rev, err)
			}
			sameMatrix(t, fmt.Sprintf("seed %d rev %v", seed, rev), got, naiveCommute(src, rev))
		}
		if st := e.Stats(); st.Grams == 0 {
			t.Fatalf("seed %d: no Gram factorizations exercised", seed)
		}
	}
}

// fixedSource is the tiny A-P-V schema used by the focused tests.
func fixedSource() *mapSource {
	rng := rand.New(rand.NewSource(99))
	s := &mapSource{counts: map[string]int{"author": 6, "paper": 9, "venue": 3}, rels: make(map[[2]string]*sparse.Matrix)}
	s.types = []string{"author", "paper", "venue"}
	s.addRel(rng, "paper", "author", 18)
	s.addRel(rng, "paper", "venue", 9)
	return s
}

func TestValidateErrors(t *testing.T) {
	e := New(fixedSource())
	for _, tc := range []struct {
		path []string
		frag string
	}{
		{[]string{"author"}, "at least two"},
		{[]string{"author", "nosuch"}, "unknown type"},
		{[]string{"author", "venue"}, "no author-venue relation"},
	} {
		err := e.Validate(tc.path)
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Fatalf("Validate(%v) = %v, want %q", tc.path, err, tc.frag)
		}
		if _, err := e.CommuteCtx(context.Background(), tc.path); err == nil {
			t.Fatalf("Commute(%v) accepted invalid path", tc.path)
		}
	}
	if err := e.Validate([]string{"author", "paper", "venue"}); err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}
}

func TestParsePath(t *testing.T) {
	e := New(fixedSource())
	for _, tc := range []struct {
		spec string
		want string
		errf string
	}{
		{spec: "A-P-A", want: "author-paper-author"},
		{spec: "a-P-v", want: "author-paper-venue"},
		{spec: "author-paper-Venue", want: "author-paper-venue"},
		{spec: "AUTH-P-A", want: "author-paper-author"},
		{spec: "x-P-A", errf: "unknown type"},
		{spec: "A--A", errf: "empty type token"},
		{spec: "A-V", errf: "no author-venue relation"},
		{spec: strings.Repeat("A-P-", 10) + "A", errf: "max"},
	} {
		got, err := e.ParsePath(tc.spec)
		if tc.errf != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errf) {
				t.Fatalf("ParsePath(%q) = %v, %v; want error containing %q", tc.spec, got, err, tc.errf)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ParsePath(%q): %v", tc.spec, err)
		}
		if join(got) != tc.want {
			t.Fatalf("ParsePath(%q) = %q, want %q", tc.spec, join(got), tc.want)
		}
	}
}

func TestParseAmbiguousPrefix(t *testing.T) {
	s := fixedSource()
	s.types = append(s.types, "paperback")
	s.counts["paperback"] = 2
	e := New(s)
	if _, err := e.ParsePath("pa-author-pa"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous prefix accepted: %v", err)
	}
	// Exact name still wins over being a prefix of another type.
	if got, err := e.ParsePath("paper-author-paper"); err != nil || got[0] != "paper" {
		t.Fatalf("exact match lost: %v %v", got, err)
	}
}

// TestCacheReuseAndCanonicalization drives the materialization cache:
// repeats hit, reverses share one materialization via transpose, and
// sub-paths of a symmetric product are reused.
func TestCacheReuseAndCanonicalization(t *testing.T) {
	src := fixedSource()
	e := New(src)
	apv := []string{"author", "paper", "venue"}
	vpa := []string{"venue", "paper", "author"}

	m1, _ := e.CommuteCtx(context.Background(), apv)
	st := e.Stats()
	if st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("cold stats: %+v", st)
	}
	misses := st.Misses
	m2, _ := e.CommuteCtx(context.Background(), apv)
	if m2 != m1 {
		t.Fatal("repeat Commute did not return the cached matrix")
	}
	if st = e.Stats(); st.Misses != misses {
		t.Fatalf("repeat missed the cache: %+v", st)
	}

	// Reverse orientation: derived by transpose, not recomputed.
	products := st.Products
	grams := st.Grams
	mr, _ := e.CommuteCtx(context.Background(), vpa)
	st = e.Stats()
	if st.Products != products || st.Grams != grams {
		t.Fatalf("reverse recomputed a product: %+v", st)
	}
	if st.Transposes == 0 {
		t.Fatal("reverse did not use the transpose path")
	}
	sameMatrix(t, "reverse", mr, m1.Transpose())

	// Symmetric APVPA: its half is the cached APV — no new leaf misses
	// for the half, one Gram product.
	if _, err := e.CommuteCtx(context.Background(), []string{"author", "paper", "venue", "paper", "author"}); err != nil {
		t.Fatal(err)
	}
	if st = e.Stats(); st.Grams != grams+1 {
		t.Fatalf("symmetric path did not Gram-factor: %+v", st)
	}
}

// TestSyncEpochInvalidates pins the epoch behavior: same epoch keeps
// the cache, a moved epoch drops it.
func TestSyncEpochInvalidates(t *testing.T) {
	e := New(fixedSource())
	if _, err := e.CommuteCtx(context.Background(), []string{"author", "paper", "venue"}); err != nil {
		t.Fatal(err)
	}
	e.SyncEpoch(0) // unchanged epoch: cache survives
	if st := e.Stats(); st.Entries == 0 {
		t.Fatal("SyncEpoch(same) dropped the cache")
	}
	e.SyncEpoch(7)
	st := e.Stats()
	if st.Entries != 0 || st.Epoch != 7 {
		t.Fatalf("SyncEpoch(new) kept the cache: %+v", st)
	}
}

// TestConcurrentCommuteSingleflight hammers one path from many
// goroutines: everyone must see the same matrix and the engine must
// compute it once (run under -race in CI).
func TestConcurrentCommuteSingleflight(t *testing.T) {
	src := fixedSource()
	e := New(src)
	path := []string{"author", "paper", "venue", "paper", "author"}
	const n = 16
	results := make([]*sparse.Matrix, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := e.CommuteCtx(context.Background(), path)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			results[i] = m
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent callers saw different materializations")
		}
	}
	if st := e.Stats(); st.Grams != 1 {
		t.Fatalf("expected exactly one Gram product, got %+v", st)
	}
}

// TestPlan checks the planner's visible artifacts on the asymmetric
// APVPA-style chain: Gram factorization flagged, and the chosen order
// estimated no worse than left-to-right.
func TestPlan(t *testing.T) {
	e := New(fixedSource())
	p, err := e.Plan([]string{"author", "paper", "venue", "paper", "author"})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Gram {
		t.Fatalf("APVPA not Gram-factored: %+v", p)
	}
	if !strings.HasPrefix(p.Order, "gram(") {
		t.Fatalf("Order = %q", p.Order)
	}
	if p.EstFlops > p.NaiveFlops {
		t.Fatalf("planned estimate %v worse than naive %v", p.EstFlops, p.NaiveFlops)
	}
	if p.String() == "" {
		t.Fatal("empty plan string")
	}
	if _, err := e.Plan([]string{"author"}); err == nil {
		t.Fatal("Plan accepted invalid path")
	}

	// A homogeneous-hop palindrome must not Gram-factor (X-X relations
	// need not be symmetric), but must still evaluate correctly.
	s2 := fixedSource()
	rng := rand.New(rand.NewSource(5))
	s2.addRel(rng, "paper", "paper", 10)
	e2 := New(s2)
	pp := []string{"author", "paper", "paper", "author"}
	p2, err := e2.Plan(pp)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Gram {
		t.Fatal("homogeneous-hop palindrome Gram-factored")
	}
	got, err := e2.CommuteCtx(context.Background(), pp)
	if err != nil {
		t.Fatal(err)
	}
	sameMatrix(t, "APPA", got, naiveCommute(s2, pp))
}
