package sparse_test

import (
	"fmt"
	"testing"

	"hinet/internal/dblp"
	"hinet/internal/hin"
	"hinet/internal/sparse"
	"hinet/internal/stats"
)

// BenchmarkCoauthorMatVec times the products a write's ranks take on the
// co-author graph A-P-A of the 800- and 4 000-author corpora — the gather
// MulVec (CG and HITS), the scatters MulVecT and MulVecTNorm (the
// directed power iteration) — serial, as a rank iteration's mat-vec
// runs below the grain, and Symmetric() on the graph as the Gram
// product returns it and on an entry-for-entry copy built from
// coordinates, which has to be scanned.
func BenchmarkCoauthorMatVec(b *testing.B) {
	defer sparse.Parallelism(sparse.Parallelism(0))
	sparse.Parallelism(1)
	for _, cfg := range []dblp.Config{{}, {AuthorsPerArea: 1000, Papers: 10_000}} {
		c := dblp.Generate(stats.NewRNG(1), cfg)
		adj := c.Net.CommutingMatrix(hin.MetaPath{dblp.TypeAuthor, dblp.TypePaper, dblp.TypeAuthor})
		n := adj.Rows()
		var entries []sparse.Coord
		for r := 0; r < n; r++ {
			cols, vals := adj.RowEntries(r)
			for i, col := range cols {
				entries = append(entries, sparse.Coord{Row: r, Col: int(col), Val: vals[i]})
			}
		}
		scanned := sparse.NewFromCoords(n, n, entries)
		inv := adj.RowInvSums()
		rng := stats.NewRNG(2)
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		for _, k := range []struct {
			name string
			run  func()
		}{
			{"MulVec", func() { adj.MulVec(x, y) }},
			{"MulVecT", func() { adj.MulVecT(x, y) }},
			{"MulVecTNorm", func() { adj.MulVecTNorm(x, inv, y) }},
			{"Symmetric/gram", func() { adj.Symmetric() }},
			{"Symmetric/coords", func() { scanned.Symmetric() }},
		} {
			b.Run(fmt.Sprintf("%s/authors=%d/nnz=%d", k.name, n, adj.NNZ()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.run()
				}
			})
		}
	}
}
