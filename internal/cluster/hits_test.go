package cluster

import (
	"math"
	"testing"

	"hinet/internal/dblp"
	"hinet/internal/sparse"
)

// TestLOBPCGCutsWarmHITSSteps is the write path's case for HITS: 50
// chained bench-shaped 3-paper writes on the default corpus (800
// authors), HITS warm from the previous write's hubs. Every write
// converges, and the chain takes at most half the steps the power
// iteration took. The co-author graph passes HITS's Perron gate, so the
// steps counted are mat-vecs of A: 484 (LOBPCG on A·Aᵀ took 413
// applications of A·Aᵀ, 826 mat-vecs), against the power iteration's
// 1 352 applications of A·Aᵀ (12–52 a write).
func TestLOBPCGCutsWarmHITSSteps(t *testing.T) {
	const power = 1352
	spec := ModelSpec{SkipPathSim: true}
	m := BuildModels(1, spec)
	steps := 0
	for i, batch := range benchBatches(t, m.Corpus, 50) {
		next, _, err := IngestModels(m, batch, false, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !next.HITS.Converged {
			t.Fatalf("write %d: HITS did not converge in %d applications of A·Aᵀ", i, next.HITS.Iterations)
		}
		steps += next.HITS.Iterations
		m = next
	}
	t.Logf("50 warm writes: %d applications of A·Aᵀ, the power iteration %d", steps, power)
	if 2*steps > power {
		t.Fatalf("50 warm writes took %d applications of A·Aᵀ, the power iteration %d", steps, power)
	}
}

// powerHubs is the reference HITS answer: the mutual-reinforcement power
// iteration a ← Aᵀh, h ← Aa from the uniform vector, L2-normalized,
// run to an L∞ authority step under 1e-13.
func powerHubs(t *testing.T, adj *sparse.Matrix) (hub, auth []float64) {
	t.Helper()
	n := adj.Rows()
	hub, auth, prev := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range hub {
		hub[i] = 1 / math.Sqrt(float64(n))
	}
	unit := func(v []float64) { sparse.ScaleVec(1/sparse.Norm2(v), v) }
	for it := 0; it < 10_000; it++ {
		copy(prev, auth)
		adj.MulVecT(hub, auth)
		unit(auth)
		adj.MulVec(auth, hub)
		unit(hub)
		if sparse.MaxAbsDiff(prev, auth) < 1e-13 {
			return hub, auth
		}
	}
	t.Fatal("the reference power iteration did not reach a 1e-13 step")
	return nil, nil
}

// TestPerronHITSOnCoauthorGraph: the co-author graph is symmetric and
// nonnegative with a positive diagonal on every nonzero row, so HITS
// runs LOBPCG on A itself and its hubs and authorities are one vector.
// Over 50 chained writes they are equal on every write, each converges,
// the chain at 800 authors takes at most 560 mat-vecs of A, and the last
// write's answer at 800 and at 4 000 authors lies within 1e-8 of the
// power iteration run to a 1e-13 step.
func TestPerronHITSOnCoauthorGraph(t *testing.T) {
	for _, cfg := range []dblp.Config{{}, {AuthorsPerArea: 1000, Papers: 10_000}} {
		spec := ModelSpec{Corpus: cfg, SkipPathSim: true}
		m := BuildModels(1, spec)
		steps := 0
		for i, batch := range benchBatches(t, m.Corpus, 50) {
			next, _, err := IngestModels(m, batch, false, spec)
			if err != nil {
				t.Fatal(err)
			}
			h := next.HITS
			if !h.Converged {
				t.Fatalf("write %d: HITS did not converge in %d mat-vecs", i, h.Iterations)
			}
			for k := range h.Hub {
				if h.Hub[k] != h.Authority[k] {
					t.Fatalf("write %d: hub %v, authority %v at %d", i, h.Hub[k], h.Authority[k], k)
				}
			}
			steps += h.Iterations
			m = next
		}
		hub, auth := powerHubs(t, m.Corpus.Net.CommutingMatrix(PathAPA))
		dh, da := sparse.MaxAbsDiff(m.HITS.Hub, hub), sparse.MaxAbsDiff(m.HITS.Authority, auth)
		n := len(hub)
		t.Logf("%d authors: 50 warm writes, %d mat-vecs of A; last write hub %.1e, authority %.1e from the 1e-13 fixed point", n, steps, dh, da)
		if dh > 1e-8 || da > 1e-8 {
			t.Errorf("%d authors: hub %g, authority %g from the power iteration's fixed point", n, dh, da)
		}
		if n == 800 && steps > 560 {
			t.Errorf("50 warm writes at 800 authors took %d mat-vecs of A, want at most 560", steps)
		}
	}
}
