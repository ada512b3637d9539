package rank

import (
	"math"
	"testing"

	"hinet/internal/dblp"
	"hinet/internal/netgen"
	"hinet/internal/sparse"
	"hinet/internal/stats"
)

// powerHITS is the mutual-reinforcement power iteration a ← Aᵀh,
// h ← Aa, L2-normalized, stopping on an L∞ authority step under
// opt.Tolerance: the reference HITS must land on.
func powerHITS(adj *sparse.Matrix, opt Options) HITSResult {
	opt = opt.withDefaults()
	n := adj.Rows()
	a := make([]float64, n)
	h := make([]float64, n)
	for i := range h {
		h[i] = 1 / math.Sqrt(float64(n))
		a[i] = h[i]
	}
	if len(opt.Start) == n && sparse.Norm2(opt.Start) > 0 {
		copy(h, opt.Start)
		normalize2(h)
	}
	prevA := make([]float64, n)
	for it := 1; it <= opt.MaxIter; it++ {
		copy(prevA, a)
		adj.MulVecT(h, a)
		normalize2(a)
		adj.MulVec(a, h)
		normalize2(h)
		if sparse.MaxAbsDiff(prevA, a) < opt.Tolerance {
			return HITSResult{Authority: a, Hub: h, Iterations: it, Converged: true}
		}
	}
	return HITSResult{Authority: a, Hub: h, Iterations: opt.MaxIter}
}

// TestLOBPCGMatchesPowerIteration: HITS lands within 1e-8 (L∞) of the
// power iteration run to a 1e-13 step, hubs and authorities, on E6's
// Barabási–Albert graph and its directed orientation (where A·Aᵀ and
// Aᵀ·A differ), on the 800-author co-author graph and on a star, and in
// fewer applications of A·Aᵀ wherever the power iteration needs more
// than a handful.
func TestLOBPCGMatchesPowerIteration(t *testing.T) {
	ba := netgen.BarabasiAlbert(stats.NewRNG(1), 3000, 3).Adjacency()
	for _, tc := range []struct {
		name string
		adj  *sparse.Matrix
	}{
		{"E6 Barabási–Albert", ba},
		{"E6 Barabási–Albert, directed", directed(ba)},
		{"800-author co-author graph", coauthorGraph(t, dblp.Config{})},
		{"star", starAdj(10)},
	} {
		got := HITS(tc.adj, Options{})
		ref := powerHITS(tc.adj, Options{Tolerance: 1e-13, MaxIter: 10_000})
		if !got.Converged || !ref.Converged {
			t.Fatalf("%s: converged %v, power iteration %v", tc.name, got.Converged, ref.Converged)
		}
		da, dh := sparse.MaxAbsDiff(got.Authority, ref.Authority), sparse.MaxAbsDiff(got.Hub, ref.Hub)
		power := powerHITS(tc.adj, Options{})
		t.Logf("%s: %d applications of A·Aᵀ, the power iteration %d; authority %.1e, hub %.1e from its 1e-13 fixed point",
			tc.name, got.Iterations, power.Iterations, da, dh)
		if da > 1e-8 || dh > 1e-8 {
			t.Errorf("%s: authority %g, hub %g from the power iteration's fixed point", tc.name, da, dh)
		}
		if power.Iterations > 10 && got.Iterations >= power.Iterations {
			t.Errorf("%s: %d applications of A·Aᵀ, the power iteration %d", tc.name, got.Iterations, power.Iterations)
		}
	}
}

// TestHITSOffPerronGate: a graph that fails the gate for B = A — here a
// directed star, an even cycle (bipartite: −ρ is an eigenvalue, and A
// alone does not pick HITS's answer) and the co-author graph with one
// nonzero row's diagonal removed — gets exactly what LOBPCG on A·Aᵀ
// gives, bit for bit and step for step, cold and warm.
func TestHITSOffPerronGate(t *testing.T) {
	var cycle []sparse.Coord
	for i := 0; i < 12; i++ {
		j := (i + 1) % 12
		cycle = append(cycle, sparse.Coord{Row: i, Col: j, Val: 1}, sparse.Coord{Row: j, Col: i, Val: 1})
	}
	apa := coauthorGraph(t, dblp.Config{})
	var holed []sparse.Coord
	dropped := -1
	for r := 0; r < apa.Rows(); r++ {
		apa.Row(r, func(c int, v float64) {
			if c == r && dropped < 0 && apa.RowNNZ(r) > 1 {
				dropped = r
				return
			}
			holed = append(holed, sparse.Coord{Row: r, Col: c, Val: v})
		})
	}
	for _, tc := range []struct {
		name string
		adj  *sparse.Matrix
	}{
		{"star", starAdj(10)},
		{"even cycle", sparse.NewFromCoords(12, 12, cycle)},
		{"co-author graph, one diagonal removed", sparse.NewFromCoords(apa.Rows(), apa.Cols(), holed)},
	} {
		n := tc.adj.Rows()
		warm := make([]float64, n)
		for i := range warm {
			warm[i] = 1 + float64(i%7)
		}
		for _, start := range [][]float64{nil, warm} {
			got := HITS(tc.adj, Options{Start: start})
			h := make([]float64, n)
			if start == nil {
				for i := range h {
					h[i] = 1 / math.Sqrt(float64(n))
				}
			} else {
				copy(h, start)
				normalize2(h)
			}
			want := hitsOnAAT(tc.adj, h, Options{}.withDefaults())
			if got.Iterations != want.Iterations || got.Converged != want.Converged {
				t.Fatalf("%s (start %v): %d steps, converged %v; LOBPCG on A·Aᵀ %d, %v",
					tc.name, start != nil, got.Iterations, got.Converged, want.Iterations, want.Converged)
			}
			for i := range h {
				if math.Float64bits(got.Hub[i]) != math.Float64bits(want.Hub[i]) ||
					math.Float64bits(got.Authority[i]) != math.Float64bits(want.Authority[i]) {
					t.Fatalf("%s (start %v): node %d hub %v authority %v, LOBPCG on A·Aᵀ %v and %v",
						tc.name, start != nil, i, got.Hub[i], got.Authority[i], want.Hub[i], want.Authority[i])
				}
			}
		}
	}
}

// TestLOBPCGRepeatedEigenvalue: two identical disjoint components give
// A·Aᵀ a repeated top eigenvalue, so the hubs are any unit vector of a
// plane. Cold, and warm from a start that weighs the components
// unequally, HITS must return a fixed point of its own iteration: one
// more round moves the authorities by less than Tolerance.
func TestLOBPCGRepeatedEigenvalue(t *testing.T) {
	one := netgen.BarabasiAlbert(stats.NewRNG(4), 300, 2).Adjacency()
	n := one.Rows()
	var entries []sparse.Coord
	for r := 0; r < n; r++ {
		one.Row(r, func(c int, v float64) {
			entries = append(entries, sparse.Coord{Row: r, Col: c, Val: v}, sparse.Coord{Row: n + r, Col: n + c, Val: v})
		})
	}
	adj := sparse.NewFromCoords(2*n, 2*n, entries)
	rng := stats.NewRNG(5)
	start := make([]float64, 2*n)
	for i := range start {
		start[i] = rng.Float64()
		if i >= n {
			start[i] *= 0.3
		}
	}
	for _, tc := range []struct {
		name  string
		start []float64
	}{{"cold", nil}, {"unequal start", start}} {
		got := HITS(adj, Options{Start: tc.start})
		if !got.Converged {
			t.Fatalf("%s: no convergence in %d applications", tc.name, got.Iterations)
		}
		a := adj.MulVecT(got.Hub, nil)
		normalize2(a)
		if d := sparse.MaxAbsDiff(a, got.Authority); d >= 1e-9 {
			t.Errorf("%s: one more round moves the authorities by %g", tc.name, d)
		}
		for i := range got.Hub {
			if got.Hub[i] < 0 || got.Authority[i] < 0 {
				t.Fatalf("%s: negative entry at %d", tc.name, i)
			}
		}
	}
}

// TestHITSAllocatesPerCallNotPerStep: a HITS call allocates its vectors
// once — the same few allocations cold and warm, though the cold call
// takes more steps.
func TestHITSAllocatesPerCallNotPerStep(t *testing.T) {
	adj := coauthorGraph(t, dblp.Config{})
	edited := adj.ApplyDelta(paperDelta(1, adj.Rows()-2))
	warmStart := HITS(adj, Options{}).Hub
	cold, warm := HITS(edited, Options{}), HITS(edited, Options{Start: warmStart})
	if cold.Iterations <= warm.Iterations {
		t.Fatalf("cold %d steps, warm %d: the fixture tells nothing", cold.Iterations, warm.Iterations)
	}
	coldAllocs := testing.AllocsPerRun(20, func() { HITS(edited, Options{}) })
	warmAllocs := testing.AllocsPerRun(20, func() { HITS(edited, Options{Start: warmStart}) })
	t.Logf("cold: %d steps, %v allocations; warm: %d steps, %v allocations", cold.Iterations, coldAllocs, warm.Iterations, warmAllocs)
	if warmAllocs > 4 || coldAllocs != warmAllocs {
		t.Errorf("HITS allocates %v times cold (%d steps) and %v warm (%d steps): something allocates per step",
			coldAllocs, cold.Iterations, warmAllocs, warm.Iterations)
	}
}
