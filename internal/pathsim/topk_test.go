// Equivalence tests for the heap-select TopK path: the bounded partial
// selection must reproduce the original full-sort-then-truncate results
// exactly, including the order of score ties.
package pathsim

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"hinet/internal/dblp"
	"hinet/internal/hin"
	"hinet/internal/sparse"
	"hinet/internal/stats"
)

// refTopK is the original implementation: collect every candidate of
// row x, full-sort (score descending, ties by id), truncate to k.
func refTopK(ix *Index, x, k int) []Pair {
	if x < 0 || x >= ix.M.Rows() || k <= 0 {
		return nil
	}
	var out []Pair
	ix.M.Row(x, func(y int, v float64) {
		if y == x || v == 0 {
			return
		}
		den := ix.diag[x] + ix.diag[y]
		if den == 0 {
			return
		}
		out = append(out, Pair{ID: y, Score: 2 * v / den})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// batchTopK is BatchTopKCtx under a context that never dies.
func batchTopK(ix *Index, xs []int, k int) [][]Pair {
	out, err := ix.BatchTopKCtx(context.Background(), xs, k)
	if err != nil {
		panic(err)
	}
	return out
}

// tieHeavyIndex builds an index over a random 0/1 bipartite incidence's
// Gram matrix (the x-f-x path of a two-type network): integer path
// counts and uniform diagonals produce many exactly-equal scores,
// stressing the tie-ordering contract.
func tieHeavyIndex(rng *rand.Rand, n, features int) *Index {
	return NewIndex(tieHeavyNet(rng, n, features), tieHeavyPath)
}

var tieHeavyPath = hin.MetaPath{"x", "f", "x"}

// bothForms returns the tie-heavy index materialized and as a factor.
func bothForms(t *testing.T, rng *rand.Rand, n, features int) map[string]*Index {
	t.Helper()
	net := tieHeavyNet(rng, n, features)
	factor, err := NewRangeIndexCtx(context.Background(), net, tieHeavyPath, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Index{"materialized": NewIndex(net, tieHeavyPath), "factor": factor}
}

func tieHeavyNet(rng *rand.Rand, n, features int) *hin.Network {
	net := hin.NewNetwork()
	add := func(t hin.Type, count int) {
		names := make([]string, count)
		for i := range names {
			names[i] = fmt.Sprintf("%s#%d", t, i)
		}
		net.AddObjects(t, names)
	}
	add("x", n)
	add("f", features)
	for r := 0; r < n; r++ {
		deg := 1 + rng.Intn(4)
		for i := 0; i < deg; i++ {
			net.AddLink("x", r, "f", rng.Intn(features), 1)
		}
	}
	return net
}

// TestTopKHeapMatchesFullSort pins the heap selection against the
// full-sort reference on tie-heavy random indexes, across k values
// below, at, and above the row population.
func TestTopKHeapMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		ix := tieHeavyIndex(rng, 30+rng.Intn(120), 4+rng.Intn(12))
		n := ix.Dim()
		for _, k := range []int{0, 1, 2, 5, 10, n, n + 50} {
			for q := 0; q < n; q += 1 + rng.Intn(3) {
				got := ix.TopK(q, k)
				want := refTopK(ix, q, k)
				if len(got) != len(want) {
					t.Fatalf("k=%d q=%d: %d results, want %d", k, q, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("k=%d q=%d rank %d: got %+v want %+v (tie order must match)",
							k, q, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestTopKEdgeCases pins the degenerate inputs.
func TestTopKEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ix := tieHeavyIndex(rng, 20, 5)
	if got := ix.TopK(-1, 5); got != nil {
		t.Errorf("negative id: %v", got)
	}
	if got := ix.TopK(ix.Dim(), 5); got != nil {
		t.Errorf("out-of-range id: %v", got)
	}
	if got := ix.TopK(0, 0); len(got) != 0 {
		t.Errorf("k=0: %v", got)
	}
	if got := ix.TopK(0, -3); len(got) != 0 {
		t.Errorf("negative k: %v", got)
	}
}

// TestBatchTopKArena pins that the arena-backed batch path returns the
// same pairs as single queries with mixed in/out-of-range ids and k
// larger than the dimension (the arena clamp).
func TestBatchTopKArena(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ix := tieHeavyIndex(rng, 60, 8)
	queries := []int{-5, 0, 7, 59, 60, 1000, 12, 7}
	for _, k := range []int{1, 3, 100} {
		batch := batchTopK(ix, queries, k)
		for i, q := range queries {
			want := ix.TopK(q, k)
			if len(batch[i]) != len(want) {
				t.Fatalf("k=%d query %d: %d vs %d results", k, q, len(batch[i]), len(want))
			}
			for j := range want {
				if batch[i][j] != want[j] {
					t.Fatalf("k=%d query %d rank %d: %+v vs %+v", k, q, j, batch[i][j], want[j])
				}
			}
		}
	}
	// k<=0 batches return empty per-query slices.
	for _, k := range []int{0, -1} {
		for i, r := range batchTopK(ix, queries, k) {
			if len(r) != 0 {
				t.Fatalf("k=%d query %d returned %v", k, i, r)
			}
		}
	}
}

// TestBatchTopKSteadyStateAllocs pins the allocation discipline: one
// batch call performs O(1) allocations (result header + arena),
// independent of batch size and row population, in either form.
func TestBatchTopKSteadyStateAllocs(t *testing.T) {
	old := sparse.Parallelism(0)
	sparse.Parallelism(1) // serial: the parallel fan-out adds pool bookkeeping
	defer sparse.Parallelism(old)
	for name, ix := range bothForms(t, rand.New(rand.NewSource(37)), 200, 10) {
		queries := make([]int, 400)
		for i := range queries {
			queries[i] = i % ix.Dim()
		}
		allocs := testing.AllocsPerRun(20, func() {
			batchTopK(ix, queries, 10)
		})
		if allocs > 4 {
			t.Errorf("%s: BatchTopK allocates %.0f times per batch, want ≤ 4", name, allocs)
		}
	}
}

// scaleSink keeps BenchmarkTopKScale's answers live.
var scaleSink []Pair

// BenchmarkTopKScale times the plain scan the server answers a top-k
// miss with: k = 100 over A-P-V-P-A, in factor form over all authors, on
// seed-1 corpora at 800, 4 000 and 16 000 authors (-papers N brings N/10
// authors an area, as in the server). Queries walk a seeded uniform
// draw of authors; each is timed alone, and the per-query p50 and p95
// are reported beside the mean.
//
//	GOMAXPROCS=2 go test -run xxx -bench BenchmarkTopKScale -benchtime 20000x ./internal/pathsim
func BenchmarkTopKScale(b *testing.B) {
	for _, perArea := range []int{200, 1000, 4000} {
		c := dblp.Generate(stats.NewRNG(1), dblp.Config{AuthorsPerArea: perArea, Papers: 10 * perArea})
		authors := c.Net.Count(dblp.TypeAuthor)
		ix, err := NewRangeIndexCtx(context.Background(), c.Net, apvpa, 0, authors)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("authors=%d", authors), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			times := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range times {
				x := rng.Intn(authors)
				start := time.Now()
				scaleSink = ix.TopK(x, 100)
				times[i] = time.Since(start)
			}
			b.StopTimer()
			slices.Sort(times)
			b.ReportMetric(float64(times[len(times)/2])/1e3, "p50-us")
			b.ReportMetric(float64(times[len(times)*95/100])/1e3, "p95-us")
		})
	}
}
