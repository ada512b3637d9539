package rank

import (
	"math"
	"testing"
	"testing/quick"

	"hinet/internal/graph"
	"hinet/internal/netgen"
	"hinet/internal/sparse"
	"hinet/internal/stats"
)

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// star: node 0 is pointed at by 1..n-1.
func starAdj(n int) *sparse.Matrix {
	var entries []sparse.Coord
	for i := 1; i < n; i++ {
		entries = append(entries, sparse.Coord{Row: i, Col: 0, Val: 1})
	}
	return sparse.NewFromCoords(n, n, entries)
}

// directed keeps each edge of an undirected graph from its later node.
func directed(und *sparse.Matrix) *sparse.Matrix {
	var arcs []sparse.Coord
	for r := 0; r < und.Rows(); r++ {
		und.Row(r, func(c int, v float64) {
			if c < r {
				arcs = append(arcs, sparse.Coord{Row: r, Col: c, Val: v})
			}
		})
	}
	return sparse.NewFromCoords(und.Rows(), und.Cols(), arcs)
}

func TestPageRankSumsToOne(t *testing.T) {
	r := PageRank(starAdj(10), Options{})
	if !r.Converged {
		t.Fatal("did not converge")
	}
	if math.Abs(sumOf(r.Scores)-1) > 1e-9 {
		t.Errorf("sum = %v", sumOf(r.Scores))
	}
}

func TestPageRankStarCenterWins(t *testing.T) {
	r := PageRank(starAdj(20), Options{})
	for i := 1; i < 20; i++ {
		if r.Scores[0] <= r.Scores[i] {
			t.Fatalf("center rank %v not above leaf %v", r.Scores[0], r.Scores[i])
		}
	}
}

func TestPageRankUniformOnCycle(t *testing.T) {
	n := 7
	var entries []sparse.Coord
	for i := 0; i < n; i++ {
		entries = append(entries, sparse.Coord{Row: i, Col: (i + 1) % n, Val: 1})
	}
	r := PageRank(sparse.NewFromCoords(n, n, entries), Options{})
	for i := 0; i < n; i++ {
		if math.Abs(r.Scores[i]-1.0/float64(n)) > 1e-6 {
			t.Fatalf("cycle not uniform: %v", r.Scores)
		}
	}
}

func TestPageRankFixedPointProperty(t *testing.T) {
	// The returned vector must satisfy its own update equation.
	rng := stats.NewRNG(1)
	g := netgen.BarabasiAlbert(rng, 300, 3)
	adj := g.Adjacency()
	r := PageRank(adj, Options{Tolerance: 1e-12, MaxIter: 500})
	if !r.Converged {
		t.Fatal("no convergence")
	}
	p := adj.RowNormalized()
	n := adj.Rows()
	next := p.MulVecT(r.Scores, nil)
	d := 0.85
	for i := 0; i < n; i++ {
		next[i] = d*next[i] + (1-d)/float64(n)
	}
	if diff := sparse.MaxAbsDiff(r.Scores, next); diff > 1e-9 {
		t.Errorf("fixed point violated by %v", diff)
	}
}

// TestPageRankFusedMatchesMaterialized pins the fused inverse-row-sum
// iteration bitwise against the pre-fusion path: materialize the
// row-stochastic matrix, run the identical power iteration with plain
// MulVecT. Every iterate must agree exactly, so the two paths converge
// at the same iteration to the same vector. The graph is directed —
// each undirected edge kept from its later node — so the power
// iteration is what runs.
func TestPageRankFusedMatchesMaterialized(t *testing.T) {
	adj := directed(netgen.BarabasiAlbert(stats.NewRNG(7), 400, 3).Adjacency())
	got := PageRank(adj, Options{})

	// Reference: the original implementation shape.
	n := adj.Rows()
	p := adj.RowNormalized()
	dangling := make([]bool, n)
	for r := 0; r < n; r++ {
		dangling[r] = p.RowSum(r) == 0
	}
	tele := make([]float64, n)
	for i := range tele {
		tele[i] = 1 / float64(n)
	}
	x := append([]float64(nil), tele...)
	next := make([]float64, n)
	// Runtime variable, not a constant: (1-d) must be computed in
	// float64 like the implementation does, not constant-folded exactly.
	d := 0.85
	want := x
	iters := 0
	for it := 1; it <= 100; it++ {
		p.MulVecT(x, next)
		dm := 0.0
		for r := 0; r < n; r++ {
			if dangling[r] {
				dm += x[r]
			}
		}
		for i := range next {
			next[i] = d*(next[i]+dm*tele[i]) + (1-d)*tele[i]
		}
		if sparse.MaxAbsDiff(x, next) < 1e-9 {
			copy(x, next)
			want, iters = x, it
			break
		}
		x, next = next, x
	}
	if got.Iterations != iters {
		t.Fatalf("fused converged in %d iterations, materialized in %d", got.Iterations, iters)
	}
	for i := range want {
		if got.Scores[i] != want[i] {
			t.Fatalf("fused score[%d] = %v, materialized = %v (must be bitwise equal)",
				i, got.Scores[i], want[i])
		}
	}
}

func TestPageRankDanglingMassRedistributed(t *testing.T) {
	// 0→1, 1 dangles.
	m := sparse.NewFromCoords(2, 2, []sparse.Coord{{Row: 0, Col: 1, Val: 1}})
	r := PageRank(m, Options{})
	if !r.Converged {
		t.Fatal("no convergence")
	}
	if math.Abs(sumOf(r.Scores)-1) > 1e-9 {
		t.Errorf("dangling leak: sum = %v", sumOf(r.Scores))
	}
	if r.Scores[1] <= r.Scores[0] {
		t.Error("node with in-link should outrank")
	}
}

func TestPersonalizedBiasesTowardRestart(t *testing.T) {
	rng := stats.NewRNG(2)
	g := netgen.ErdosRenyi(rng, 100, 0.05)
	adj := g.Adjacency()
	restart := make([]float64, 100)
	restart[7] = 1
	r := Personalized(adj, restart, Options{})
	count := 0
	for i, s := range r.Scores {
		if i != 7 && s >= r.Scores[7] {
			count++
		}
	}
	if count > 0 {
		t.Errorf("%d nodes outrank the restart node", count)
	}
}

func TestPersonalizedZeroRestartFallsBackUniform(t *testing.T) {
	adj := starAdj(5)
	a := Personalized(adj, make([]float64, 5), Options{})
	b := PageRank(adj, Options{})
	if sparse.MaxAbsDiff(a.Scores, b.Scores) > 1e-9 {
		t.Error("zero restart should equal global PageRank")
	}
}

func TestHITSAuthorityOnStar(t *testing.T) {
	r := HITS(starAdj(10), Options{})
	if !r.Converged {
		t.Fatal("no convergence")
	}
	// node 0 receives all links: top authority; leaves are hubs.
	for i := 1; i < 10; i++ {
		if r.Authority[0] <= r.Authority[i] {
			t.Fatal("authority wrong")
		}
		if r.Hub[i] <= r.Hub[0] {
			t.Fatal("hub wrong")
		}
	}
}

func TestHITSNonNegativeUnitNorm(t *testing.T) {
	rng := stats.NewRNG(3)
	g := netgen.BarabasiAlbert(rng, 200, 2)
	r := HITS(g.Adjacency(), Options{})
	// LOBPCG leaves the sign of its vector open: only HITS's sign fix
	// makes the hubs, and with them the authorities, nonnegative.
	for _, v := range []struct {
		name   string
		scores []float64
	}{{"authority", r.Authority}, {"hub", r.Hub}} {
		if norm := sparse.Norm2(v.scores); math.Abs(norm-1) > 1e-6 {
			t.Errorf("%s norm = %v", v.name, norm)
		}
		for _, s := range v.scores {
			if s < 0 {
				t.Fatalf("negative %s", v.name)
			}
		}
	}
}

func TestSimpleRankingDistributions(t *testing.T) {
	w := sparse.NewFromDense([][]float64{
		{3, 1},
		{0, 2},
	})
	br := SimpleRanking(w)
	if math.Abs(sumOf(br.X)-1) > 1e-12 || math.Abs(sumOf(br.Y)-1) > 1e-12 {
		t.Fatal("rank distributions must sum to 1")
	}
	if math.Abs(br.X[0]-4.0/6) > 1e-12 {
		t.Errorf("X[0] = %v", br.X[0])
	}
	if math.Abs(br.Y[0]-0.5) > 1e-12 {
		t.Errorf("Y[0] = %v", br.Y[0])
	}
}

func TestAuthorityRankingRewardsWellConnected(t *testing.T) {
	// conf0 is linked by the two most prolific authors; conf2 by one lone author.
	w := sparse.NewFromDense([][]float64{
		{5, 5, 0},
		{3, 2, 1},
		{0, 0, 1},
	})
	br := AuthorityRanking(w, nil, AuthorityOptions{})
	if br.X[0] <= br.X[2] {
		t.Errorf("authority ranking order wrong: %v", br.X)
	}
	if math.Abs(sumOf(br.X)-1) > 1e-9 || math.Abs(sumOf(br.Y)-1) > 1e-9 {
		t.Error("distributions must sum to 1")
	}
}

func TestAuthorityRankingWithHomogeneousLinks(t *testing.T) {
	w := sparse.NewFromDense([][]float64{
		{2, 0},
		{0, 2},
		{1, 1},
	})
	wxx := sparse.NewFromDense([][]float64{
		{0, 1, 0},
		{1, 0, 0},
		{0, 0, 0},
	})
	br := AuthorityRanking(w, wxx, AuthorityOptions{Alpha: 0.7})
	if math.Abs(sumOf(br.X)-1) > 1e-9 {
		t.Error("X must remain a distribution with WXX mixing")
	}
	for _, v := range br.X {
		if v < 0 {
			t.Fatal("negative rank")
		}
	}
}

func TestConditionalRankRestriction(t *testing.T) {
	w := sparse.NewFromDense([][]float64{
		{4, 0, 0},
		{0, 3, 1},
		{0, 0, 2},
	})
	br := ConditionalRank(w, nil, []int{1, 2}, false, AuthorityOptions{})
	if br.X[0] != 0 {
		t.Error("excluded member must have zero rank")
	}
	if math.Abs(sumOf(br.X)-1) > 1e-12 {
		t.Error("restricted X ranks must sum to 1")
	}
	// attribute 0 gets no mass from members {1,2}
	if br.Y[0] != 0 {
		t.Errorf("Y[0] = %v, want 0", br.Y[0])
	}
}

func TestConditionalRankAuthorityMatchesDirect(t *testing.T) {
	w := sparse.NewFromDense([][]float64{
		{4, 1, 0},
		{0, 3, 1},
		{2, 0, 2},
	})
	all := []int{0, 1, 2}
	via := ConditionalRank(w, nil, all, true, AuthorityOptions{})
	direct := AuthorityRanking(w, nil, AuthorityOptions{})
	if sparse.MaxAbsDiff(via.X, direct.X) > 1e-12 || sparse.MaxAbsDiff(via.Y, direct.Y) > 1e-12 {
		t.Error("full-membership conditional rank must equal direct ranking")
	}
}

func TestPageRankDistributionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		g := netgen.ErdosRenyi(rng, 30+rng.Intn(50), 0.08)
		r := PageRank(g.Adjacency(), Options{})
		if math.Abs(sumOf(r.Scores)-1) > 1e-6 {
			return false
		}
		for _, v := range r.Scores {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestEmptyGraphs(t *testing.T) {
	r := PageRank(sparse.NewFromCoords(0, 0, nil), Options{})
	if !r.Converged || len(r.Scores) != 0 {
		t.Error("empty PageRank should trivially converge")
	}
	h := HITS(sparse.NewFromCoords(0, 0, nil), Options{})
	if !h.Converged {
		t.Error("empty HITS should trivially converge")
	}
}

func TestPageRankOnGraphAdjacency(t *testing.T) {
	// Smoke: undirected path graph; middle node should outrank endpoint.
	g := graph.New(3, false)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	r := PageRank(g.Adjacency(), Options{})
	if r.Scores[1] <= r.Scores[0] {
		t.Error("middle of path should outrank endpoint")
	}
}

func TestResultTopKHelpers(t *testing.T) {
	r := Result{Scores: []float64{0.1, 0.5, 0.2, 0.4}}
	if got := r.TopK(2); got[0] != 1 || got[1] != 3 {
		t.Errorf("TopK(2) = %v", got)
	}
	if got := r.TopK(10); len(got) != 4 {
		t.Errorf("TopK should clamp, got %v", got)
	}
	if got := r.TopK(-1); len(got) != 0 {
		t.Errorf("TopK(-1) should clamp to empty, got %v", got)
	}
	h := HITSResult{Authority: []float64{0.9, 0.1}, Hub: []float64{0.1, 0.9}}
	if got := h.TopAuthorities(1); got[0] != 0 {
		t.Errorf("TopAuthorities = %v", got)
	}
	if got := h.TopHubs(1); got[0] != 1 {
		t.Errorf("TopHubs = %v", got)
	}
}

// TestPageRankWarmStart checks that a warm-started iteration reaches
// the same stationary distribution as a cold one (the fixed point does
// not depend on the start vector) in no more iterations, and that
// malformed warm vectors are ignored.
func TestPageRankWarmStart(t *testing.T) {
	g := netgen.BarabasiAlbert(stats.NewRNG(5), 400, 3)
	adj := g.Adjacency()
	cold := PageRank(adj, Options{})
	if !cold.Converged {
		t.Fatal("cold run did not converge")
	}

	// Perturb the graph slightly, recompute cold and warm.
	perturbed := adj.ApplyDelta([]sparse.Coord{
		{Row: 0, Col: 5, Val: 1}, {Row: 7, Col: 3, Val: 1}, {Row: 2, Col: 9, Val: 1},
	})
	cold2 := PageRank(perturbed, Options{})
	warm := PageRank(perturbed, Options{Start: cold.Scores})
	if !warm.Converged {
		t.Fatal("warm run did not converge")
	}
	if d := sparse.MaxAbsDiff(cold2.Scores, warm.Scores); d > 1e-6 {
		t.Fatalf("warm and cold disagree by %g", d)
	}
	if warm.Iterations > cold2.Iterations {
		t.Fatalf("warm start took %d iterations, cold %d", warm.Iterations, cold2.Iterations)
	}

	// Mismatched length and zero-mass warm vectors fall back to cold.
	if got := PageRank(perturbed, Options{Start: []float64{1, 2, 3}}); got.Iterations != cold2.Iterations {
		t.Fatal("length-mismatched Start must be ignored")
	}
	if got := PageRank(perturbed, Options{Start: make([]float64, perturbed.Rows())}); got.Iterations != cold2.Iterations {
		t.Fatal("zero-mass Start must be ignored")
	}
}

// threePassPageRank is personalized as it was before the iteration was
// fused: after the mat-vec, one pass sums the dangling mass over a
// []bool, one applies the teleport/dangling update, one takes the L∞
// step — the reference the one-pass form must match bit for bit.
func threePassPageRank(adj *sparse.Matrix, restart, start []float64) Result {
	n := adj.Rows()
	inv := make([]float64, n)
	dangling := make([]bool, n)
	for r := 0; r < n; r++ {
		if s := adj.RowSum(r); s != 0 {
			inv[r] = 1 / s
		} else {
			inv[r] = 1
			dangling[r] = true
		}
	}
	tele := make([]float64, n)
	for i := range tele {
		tele[i] = 1 / float64(n)
	}
	if restart != nil {
		copy(tele, restart)
		sparse.ScaleVec(1/sumOf(tele), tele)
	}
	x := append([]float64(nil), tele...)
	if start != nil {
		copy(x, start)
		sparse.ScaleVec(1/sumOf(x), x)
	}
	next := make([]float64, n)
	d := 0.85 // a variable: (1-d) is computed in float64, as in personalized
	for it := 1; it <= 100; it++ {
		adj.MulVecTNorm(x, inv, next)
		dm := 0.0
		for r := 0; r < n; r++ {
			if dangling[r] {
				dm += x[r]
			}
		}
		for i := range next {
			next[i] = d*(next[i]+dm*tele[i]) + (1-d)*tele[i]
		}
		if sparse.MaxAbsDiff(x, next) < 1e-9 {
			return Result{Scores: next, Iterations: it, Converged: true}
		}
		x, next = next, x
	}
	return Result{Scores: x, Iterations: 100}
}

// TestPageRankOnePassMatchesThreePass: fusing the update with the
// convergence test, and summing the dangling mass over an id list, moves
// no bit on the serial path — cold and warm, uniform and personalized,
// on a graph with dangling rows.
func TestPageRankOnePassMatchesThreePass(t *testing.T) {
	defer sparse.Parallelism(sparse.Parallelism(0))
	sparse.Parallelism(1)
	rng := stats.NewRNG(11)
	const n = 600
	var entries []sparse.Coord
	for r := 0; r < n; r++ {
		if r%7 == 3 {
			continue // a dangling row
		}
		for e := 0; e < 1+rng.Intn(6); e++ {
			entries = append(entries, sparse.Coord{Row: r, Col: rng.Intn(n), Val: 1 + rng.Float64()})
		}
	}
	adj := sparse.NewFromCoords(n, n, entries)
	restart := make([]float64, n)
	for i := range restart {
		if i%5 == 0 {
			restart[i] = rng.Float64()
		}
	}
	edited := adj.ApplyDelta([]sparse.Coord{
		{Row: 3, Col: 9, Val: 1}, {Row: 10, Col: 4, Val: 2}, {Row: 17, Col: 3, Val: 1},
	})
	for _, c := range []struct {
		name    string
		restart []float64
	}{{"uniform", nil}, {"personalized", restart}} {
		cold := Personalized(adj, c.restart, Options{})
		want := threePassPageRank(adj, c.restart, nil)
		sameResult(t, c.name+" cold", cold, want)
		if !cold.Converged || cold.Iterations < 10 {
			t.Fatalf("%s: cold run ended after %d iterations (converged %v): the fixture tests nothing", c.name, cold.Iterations, cold.Converged)
		}
		warm := Personalized(edited, c.restart, Options{Start: cold.Scores})
		sameResult(t, c.name+" warm", warm, threePassPageRank(edited, c.restart, cold.Scores))
	}
}

func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("%s: %d iterations (converged %v), three-pass form %d (%v)",
			label, got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	for i := range want.Scores {
		if math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
			t.Fatalf("%s: score[%d] = %v, three-pass form %v", label, i, got.Scores[i], want.Scores[i])
		}
	}
}
