package cluster

import "testing"

// TestLOBPCGCutsWarmHITSSteps is the write path's case for HITS: 50
// chained bench-shaped 3-paper writes on the default corpus (800
// authors), HITS warm from the previous write's hubs. Every write
// converges, and the chain takes at most half the applications of A·Aᵀ
// the power iteration took: 1 352 with the power iteration (12–52 a
// write), 413 with LOBPCG (5–11).
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
