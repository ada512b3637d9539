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
	// Each ceiling is its reading when it was set plus 10–50 %: Clone
	// read 3.8 KB and 5.4 KB, Clone + Apply 88 KB and 355 KB. The largest
	// single write is the first, whose merges copy the freshly built
	// matrices out with room to grow (1.88 MB at 4 000 authors), or at
	// 800 authors the 43rd, when the paper-major matrices outgrow that
	// room (514 KB). A write that also copied a whole link log read
	// 2.18 MB at 4 000 authors.
	for _, tc := range []struct {
		name               string
		corpus             dblp.Config
		cloneMax, writeMax uint64 // bytes per write, median
		mostMax            uint64 // bytes of the largest write
	}{
		{"800 authors", dblp.Config{AuthorsPerArea: 200, Papers: 2000}, 5 << 10, 96 << 10, 576 << 10},
		{"4000 authors", dblp.Config{AuthorsPerArea: 1000, Papers: 10_000}, 7 << 10, 384 << 10, 2 << 20},
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
		most := slices.Max(writeB)
		clone, write := median(cloneB), median(writeB)
		t.Logf("%s: Clone %d B, Clone + Apply %d B and %v per chained 3-paper write (medians of 50); largest write %d B",
			tc.name, clone, write, time.Duration(median(writeNs)), most)
		if clone > tc.cloneMax {
			t.Errorf("%s: Clone allocates %d B per write, ceiling %d: it copies something the size of the corpus", tc.name, clone, tc.cloneMax)
		}
		if write > tc.writeMax {
			t.Errorf("%s: Clone + Apply allocate %d B per write, ceiling %d", tc.name, write, tc.writeMax)
		}
		if most > tc.mostMax {
			t.Errorf("%s: one write allocates %d B, ceiling %d: something the size of the corpus was copied", tc.name, most, tc.mostMax)
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
