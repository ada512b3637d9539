// The allocation ceiling of a write's copy step: Clone + ingest.Apply
// cost what the batch touches (the names it adds, the rows it appends to
// the paper-major relations, the one author-major relation it edits in
// the middle), not the corpus.

package cluster

import (
	"context"
	"encoding/json"
	"runtime"
	"slices"
	"testing"
	"time"

	"hinet/internal/dblp"
	"hinet/internal/ingest"
	"hinet/internal/loadgen"
)

// benchBatches generates n 3-paper ingest batches the way bench does.
func benchBatches(t testing.TB, c *dblp.Corpus, n int) [][]ingest.Delta {
	t.Helper()
	ks, err := loadgen.NewKeyspace(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := loadgen.Generate(loadgen.Config{Seed: 42, Arrival: loadgen.ArrivalClosed, Requests: n,
		Mix: loadgen.Mix{Ingest: 1}, IngestBatch: 3}, ks)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]ingest.Delta, len(tr.Events))
	for i, ev := range tr.Events {
		var b struct{ Deltas []ingest.Delta }
		if err := json.Unmarshal([]byte(ev.Body), &b); err != nil {
			t.Fatal(err)
		}
		out[i] = b.Deltas
	}
	return out
}

func TestWriteCopiesWhatItTouches(t *testing.T) {
	totalAlloc := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	median := func(xs []uint64) uint64 { slices.Sort(xs); return xs[len(xs)/2] }
	for _, tc := range []struct {
		name               string
		corpus             dblp.Config
		cloneMax, writeMax uint64 // bytes per write, median
	}{
		{"800 authors", dblp.Config{AuthorsPerArea: 200, Papers: 2000}, 64 << 10, 128 << 10},
		{"4000 authors", dblp.Config{AuthorsPerArea: 1000, Papers: 10_000}, 64 << 10, 512 << 10},
	} {
		// The network a server holds: every relation its models read is
		// materialized, and the engine keeps their products.
		m := BuildModels(1, ModelSpec{Corpus: tc.corpus, SkipPathSim: true})
		net := m.Corpus.Net
		var cloneB, writeB, writeNs []uint64
		for _, batch := range benchBatches(t, m.Corpus, 50) {
			start, a0 := time.Now(), totalAlloc()
			next := net.Clone()
			a1 := totalAlloc()
			if _, err := ingest.Apply(next, batch, ingest.Options{}); err != nil {
				t.Fatal(err)
			}
			a2 := totalAlloc()
			cloneB, writeB = append(cloneB, a1-a0), append(writeB, a2-a0)
			writeNs = append(writeNs, uint64(time.Since(start)))
			net = next
		}
		clone, write := median(cloneB), median(writeB)
		t.Logf("%s: Clone %d B, Clone + Apply %d B and %v per chained 3-paper write (medians of 50)",
			tc.name, clone, write, time.Duration(median(writeNs)))
		if clone > tc.cloneMax {
			t.Errorf("%s: Clone allocates %d B per write, ceiling %d: it copies something the size of the corpus", tc.name, clone, tc.cloneMax)
		}
		if write > tc.writeMax {
			t.Errorf("%s: Clone + Apply allocate %d B per write, ceiling %d", tc.name, write, tc.writeMax)
		}
	}
}

// TestWriteTransposesNoRelation: the network keeps both orientations of
// every relation, merged by each write, so the A-P-A patch's hᵀ and the
// factor a reader asks for are the network's paper×author matrix itself
// — pointer-equal, not a transpose the engine made and cached beside it.
func TestWriteTransposesNoRelation(t *testing.T) {
	spec := ModelSpec{SkipPathSim: true}
	m := BuildModels(1, spec)
	for i, batch := range benchBatches(t, m.Corpus, 3) {
		next, _, err := IngestModels(m, batch, false, spec)
		if err != nil {
			t.Fatal(err)
		}
		net := next.Corpus.Net
		eng := net.PathEngine()
		if st := eng.Stats(); st.Patches == 0 || st.Transposes != 0 {
			t.Fatalf("write %d: %d patches, %d transposes: the A-P-A patch must run and transpose nothing", i, st.Patches, st.Transposes)
		}
		h, ht, err := net.CommutingFactorCtx(context.Background(), PathAPA)
		if err != nil {
			t.Fatal(err)
		}
		if h != net.Relation(dblp.TypeAuthor, dblp.TypePaper) || ht != net.Relation(dblp.TypePaper, dblp.TypeAuthor) {
			t.Fatalf("write %d: the A-P-A factor is not the network's author×paper and paper×author matrices", i)
		}
		if st := eng.Stats(); st.Transposes != 0 {
			t.Fatalf("write %d: the factor took %d transposes", i, st.Transposes)
		}
		m = next
	}
}
