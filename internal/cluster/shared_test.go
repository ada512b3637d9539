// One model generation per write: the coordinator applies a write once
// and publishes one View whose shard ranges tile the default path's
// endpoint type, and keeps nothing of the generation it supersedes.

package cluster

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hinet/internal/dblp"
	"hinet/internal/ingest"
)

// requirePublished fails unless the published View carries no full
// index and its shard ranges of the default path tile the author type.
func requirePublished(t *testing.T, c *Coordinator, label string) {
	t.Helper()
	v := c.View()
	if v.Models.PathSim != nil {
		t.Fatalf("%s: the published generation carries a full index", label)
	}
	lo := 0
	for i, ix := range v.def {
		if ix.Lo() != lo {
			t.Fatalf("%s: shard %d's range starts at %d, want %d", label, i, ix.Lo(), lo)
		}
		lo = ix.Hi()
	}
	if dim := v.Corpus.Net.Count(dblp.TypeAuthor); lo != dim {
		t.Fatalf("%s: the shard ranges end at %d of %d authors", label, lo, dim)
	}
}

func TestLocalClusterSharesOneGeneration(t *testing.T) {
	spec := testSpec()
	ref := BuildModels(5, spec)
	part := PartitionByNNZ(string(dblp.TypeAuthor), ref.PathSim.Dim(), 3, ref.PathSim.M.RowNNZ)
	c, err := NewLocalCluster(3, part, spec, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	requirePublished(t, c, "boot")
	boot := c.View().Models

	deltas := newTestDeltas(ref, "shared")
	ref2, _, err := IngestModels(ref, deltas, false, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Ingest(deltas, false); err != nil {
		t.Fatal(err)
	}
	requirePublished(t, c, "ingest")
	if c.View().Models == boot {
		t.Fatal("ingest did not produce a new generation")
	}
	checkEquivalence(t, rand.New(rand.NewSource(1)), c, ref2, "ingest")

	// Back-to-back rebuilds from one seed are two writes, each built once.
	before := c.View().Models
	for i := 0; i < 2; i++ {
		if _, err := c.Rebuild(8); err != nil {
			t.Fatal(err)
		}
		requirePublished(t, c, "rebuild")
		if now := c.View().Models; now == before {
			t.Fatal("rebuild reused the previous write's generation")
		} else {
			before = now
		}
	}
}

// TestWriteRetainsNoSupersededGeneration: once no View holds it, a
// superseded generation is garbage — however many writes came before,
// the coordinator keeps no copy of it (no log of batches, no checkpoint
// of models to replay them from). The probe is a finalizer on the
// generation's PageRank vector, which no later generation aliases
// (rank.PageRank copies its warm start); 64 writes in, it still must
// run.
func TestWriteRetainsNoSupersededGeneration(t *testing.T) {
	spec := testSpec()
	c, err := NewLocalCluster(1, Partition{Of: string(dblp.TypeAuthor), Bounds: []int{0, 0}}, spec, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	net := c.View().Corpus.Net
	authors, papers := net.Count(dblp.TypeAuthor), net.Count(dblp.TypePaper)
	rng := rand.New(rand.NewSource(21))
	edge := ingest.Delta{SrcType: string(dblp.TypePaper), DstType: string(dblp.TypeAuthor)}
	write := func() {
		t.Helper()
		// One delta per write: an edge appears, then goes again, so the
		// network stays the size it was.
		if edge.Op == ingest.OpAddEdge {
			edge.Op = ingest.OpRemoveEdge
		} else {
			edge.Op = ingest.OpAddEdge
			edge.Src = net.Name(dblp.TypePaper, rng.Intn(papers))
			edge.Dst = net.Name(dblp.TypeAuthor, rng.Intn(authors))
		}
		if _, _, err := c.Ingest([]ingest.Delta{edge}, false); err != nil {
			t.Fatalf("write at epoch %d: %v", c.Epoch(), err)
		}
	}
	for c.Epoch() < 64 {
		write()
	}
	collected := make(chan struct{})
	func() {
		scores := c.View().PageRank.Scores
		runtime.SetFinalizer(&scores[0], func(*float64) { close(collected) })
	}()
	write() // supersedes epoch 64; nothing here holds its View

	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("epoch %d's generation is still reachable after epoch %d superseded it", c.Epoch()-1, c.Epoch())
		}
	}
}
