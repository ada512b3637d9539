// One model generation per write: the coordinator applies a write once,
// logs it once, and publishes one View whose shard ranges tile the
// default path's endpoint type; a restart replays that one log privately.

package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hinet/internal/dblp"
	"hinet/internal/ingest"
	"hinet/internal/pathsim"
)

// requireLogged fails unless the published View is the head of the one
// log — at the epoch the checkpoint and the log reach — carries no full
// index, and its shard ranges of the default path tile the author type.
func requireLogged(t *testing.T, c *Coordinator, label string) {
	t.Helper()
	v := c.View()
	if v.Models.PathSim != nil {
		t.Fatalf("%s: the published generation carries a full index", label)
	}
	if got := c.base + int64(len(c.log)); got != v.Epoch {
		t.Fatalf("%s: the log reaches epoch %d, the View is at %d", label, got, v.Epoch)
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
	requireLogged(t, c, "boot")
	boot := c.View().Models

	deltas := newTestDeltas(ref, "shared")
	ref2, _, err := IngestModels(ref, deltas, false, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Ingest(deltas, false); err != nil {
		t.Fatal(err)
	}
	requireLogged(t, c, "ingest")
	if c.View().Models == boot {
		t.Fatal("ingest did not produce a new generation")
	}
	if len(c.log) != 2 || !c.log[0].rebuild || c.log[1].rebuild {
		t.Fatalf("after a boot and one ingest the log holds %d entries, want the rebuild and the batch", len(c.log))
	}
	// The logged batch is the entry's own copy, not the caller's slice.
	deltas[0].Name = "scribbled"
	if got := c.log[1].deltas[0].Name; got == "scribbled" {
		t.Fatal("write log aliases the caller's batch")
	}

	// A restart replays the log privately (bit-identical, own pointers)
	// at the same epoch, and the next write builds on the replay.
	live := c.View()
	if err := c.Restart(); err != nil {
		t.Fatal(err)
	}
	replayed := c.View()
	if replayed == live || replayed.Epoch != live.Epoch {
		t.Fatalf("Restart published epoch %d (want %d) in a new View: %v", replayed.Epoch, live.Epoch, replayed != live)
	}
	if replayed.Models == live.Models || replayed.Corpus.Net == live.Corpus.Net {
		t.Fatal("Restart borrowed the live generation instead of replaying its log")
	}
	checkEquivalence(t, rand.New(rand.NewSource(1)), c, ref2, "restarted")
	deltas3 := newTestDeltas(ref2, "rejoin")
	ref3, _, err := IngestModels(ref2, deltas3, false, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Ingest(deltas3, false); err != nil {
		t.Fatal(err)
	}
	requireLogged(t, c, "write after restart")
	checkEquivalence(t, rand.New(rand.NewSource(2)), c, ref3, "after restart")

	// Back-to-back rebuilds from one seed are two writes, each built once.
	before := c.View().Models
	for i := 0; i < 2; i++ {
		if _, err := c.Rebuild(8); err != nil {
			t.Fatal(err)
		}
		requireLogged(t, c, "rebuild")
		if now := c.View().Models; now == before {
			t.Fatal("rebuild reused the previous write's generation")
		} else {
			before = now
		}
		if len(c.log) != 1 || c.checkpoint != nil {
			t.Fatalf("a rebuild left %d log entries over checkpoint %v: it depends on no history", len(c.log), c.checkpoint)
		}
	}
}

// TestWriteLogBounded: the replayable log never outgrows maxLogOps —
// a full log folds into a checkpoint of the generation the cluster was
// retaining anyway — and a restart from checkpoint + log still
// reproduces the live generation bit for bit.
func TestWriteLogBounded(t *testing.T) {
	spec := testSpec()
	part := Partition{Of: string(dblp.TypeAuthor), Bounds: []int{0, 0}}
	c, err := NewLocalCluster(1, part, spec, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	net := c.View().Corpus.Net
	authors, papers := net.Count(dblp.TypeAuthor), net.Count(dblp.TypePaper)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 5000; i += 2 {
		// One delta per write: an edge appears, then goes again, so the
		// network stays the size it was.
		edge := ingest.Delta{Op: ingest.OpAddEdge,
			SrcType: string(dblp.TypePaper), Src: net.Name(dblp.TypePaper, rng.Intn(papers)),
			DstType: string(dblp.TypeAuthor), Dst: net.Name(dblp.TypeAuthor, rng.Intn(authors))}
		for _, op := range []ingest.Op{ingest.OpAddEdge, ingest.OpRemoveEdge} {
			edge.Op = op
			if _, _, err := c.Ingest([]ingest.Delta{edge}, false); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			if n := len(c.log); n > maxLogOps {
				t.Fatalf("after %d writes the log holds %d entries, bound is %d", i+2, n, maxLogOps)
			}
		}
	}
	if c.checkpoint == nil || c.base+int64(len(c.log)) != c.Epoch() {
		t.Fatalf("log of %d entries over a checkpoint at epoch %d does not reach epoch %d", len(c.log), c.base, c.Epoch())
	}

	ctx, epoch := context.Background(), c.Epoch()
	read := func() (rows [][]pathsim.Pair) {
		v := c.View()
		if v.Epoch != epoch {
			t.Fatalf("View at epoch %d, want %d", v.Epoch, epoch)
		}
		for x := 0; x < authors; x++ {
			row, err := v.TopK(ctx, "", x, authors)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row)
		}
		return rows
	}
	live, before := read(), c.View().Models
	if err := c.Restart(); err != nil {
		t.Fatal(err)
	}
	if now := c.View().Models; c.Epoch() != epoch || now == before {
		t.Fatalf("restart: epoch %d (want %d), replayed privately: %v", c.Epoch(), epoch, now != before)
	}
	replayed := read()
	for x := range live {
		pairsEqual(t, live[x], replayed[x], fmt.Sprintf("row %d after restart", x))
	}
	sameRanks(t, "after restart", c.View().Models, before)
}
