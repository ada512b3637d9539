package cluster

import (
	"testing"

	"hinet/internal/dblp"
)

// TestWritesKeepCoauthorGraphSymmetric: PageRank takes Chebyshev steps
// only on a symmetric graph, so a write whose patched co-author graph
// drifted one ulp off its transpose would silently fall back to the
// power iteration and about double the write's PageRank. Over 50
// chained 3-paper writes on the default corpus the graph every write
// ranks stays symmetric, and every write's PageRank converges.
func TestWritesKeepCoauthorGraphSymmetric(t *testing.T) {
	spec := ModelSpec{Corpus: dblp.Config{AuthorsPerArea: 200, Papers: 2000}, SkipPathSim: true}
	m := BuildModels(1, spec)
	for i, batch := range benchBatches(t, m.Corpus, 50) {
		next, _, err := IngestModels(m, batch, false, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !next.Corpus.Net.CommutingMatrix(PathAPA).Symmetric() {
			t.Fatalf("write %d: the patched co-author graph is not symmetric", i)
		}
		if !next.PageRank.Converged {
			t.Fatalf("write %d: PageRank did not converge in %d iterations", i, next.PageRank.Iterations)
		}
		m = next
	}
}
