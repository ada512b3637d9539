package cluster

import (
	"reflect"
	"testing"

	"hinet/internal/dblp"
	"hinet/internal/sparse"
)

// TestWritesKeepCoauthorGraphSymmetric: PageRank takes CG steps only on
// a symmetric graph, so a write whose patched co-author graph drifted
// one ulp off its transpose would silently fall back to the power
// iteration and about double the write's PageRank. Over 50
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

// provenSymmetric reads the flag a sparse.Matrix carries when the
// package built it symmetric (a Gram product, or a patch of one that
// keeps the mirror), and Symmetric answers from without a scan.
func provenSymmetric(m *sparse.Matrix) bool {
	return reflect.ValueOf(m).Elem().FieldByName("sym").Bool()
}

// TestWritesProveCoauthorGraphSymmetric: Symmetric answers from the
// flag on the co-author graph, so the scan behind
// TestWritesKeepCoauthorGraphSymmetric no longer looks at it; this test
// does. Over 50 chained 3-paper writes at 800 and at 4 000 authors,
// every write's graph carries the flag, and every stored entry equals
// its mirror, read entry by entry.
func TestWritesProveCoauthorGraphSymmetric(t *testing.T) {
	for _, cfg := range []dblp.Config{{}, {AuthorsPerArea: 1000, Papers: 10_000}} {
		spec := ModelSpec{Corpus: cfg, SkipPathSim: true}
		m := BuildModels(1, spec)
		for i, batch := range benchBatches(t, m.Corpus, 50) {
			next, _, err := IngestModels(m, batch, false, spec)
			if err != nil {
				t.Fatal(err)
			}
			adj := next.Corpus.Net.CommutingMatrix(PathAPA)
			if !provenSymmetric(adj) {
				t.Fatalf("%d authors, write %d: the co-author graph lost its symmetry flag", adj.Rows(), i)
			}
			for r := 0; r < adj.Rows(); r++ {
				cols, vals := adj.RowEntries(r)
				for k, c := range cols {
					if mirror := adj.At(int(c), r); mirror != vals[k] {
						t.Fatalf("%d authors, write %d: entry (%d, %d) = %v, its mirror %v", adj.Rows(), i, r, c, vals[k], mirror)
					}
				}
			}
			m = next
		}
	}
}

// TestCGCutsWarmPageRankSteps is the write path's case for PageRank: 50
// chained bench-shaped 3-paper writes on the default corpus (800
// authors), PageRank warm from the previous write's scores. Every write
// converges, and the chain takes at most 4/5 of the mat-vecs Chebyshev
// semi-iteration took: 1 058 with Chebyshev (19–23 a write), 741 with
// conjugate gradients (13–17).
func TestCGCutsWarmPageRankSteps(t *testing.T) {
	const chebyshev = 1058
	spec := ModelSpec{SkipPathSim: true}
	m := BuildModels(1, spec)
	steps, lo, hi := 0, 1<<30, 0
	for i, batch := range benchBatches(t, m.Corpus, 50) {
		next, _, err := IngestModels(m, batch, false, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !next.PageRank.Converged {
			t.Fatalf("write %d: PageRank did not converge in %d mat-vecs", i, next.PageRank.Iterations)
		}
		steps += next.PageRank.Iterations
		lo, hi = min(lo, next.PageRank.Iterations), max(hi, next.PageRank.Iterations)
		m = next
	}
	t.Logf("50 warm writes: %d mat-vecs (%d–%d a write), Chebyshev %d", steps, lo, hi, chebyshev)
	if 5*steps > 4*chebyshev {
		t.Fatalf("50 warm writes took %d mat-vecs, Chebyshev %d", steps, chebyshev)
	}
}
