// One model generation per write: the shards of an in-process cluster
// hold the same *Models and the same log entry after every write,
// however the write reaches them, and only shards with the same history
// ever share.

package cluster

import (
	"math/rand"
	"sync"
	"testing"

	"hinet/internal/dblp"
	"hinet/internal/ingest"
)

func localShards(c *Coordinator) []*LocalShard {
	out := make([]*LocalShard, c.Shards())
	for i := range out {
		out[i] = c.Shard(i).(*LocalShard)
	}
	return out
}

// requireShared fails unless every shard holds shard 0's models, network
// and newest log entry.
func requireShared(t *testing.T, c *Coordinator, label string) {
	t.Helper()
	shards := localShards(c)
	m := shards[0].Models()
	if m == nil {
		t.Fatalf("%s: shard 0 has no generation", label)
	}
	for i, sh := range shards {
		if sh.Models() != m || sh.Models().Corpus.Net != m.Corpus.Net {
			t.Fatalf("%s: shard %d holds its own model set", label, i)
		}
		if sh.baseOps[len(sh.baseOps)-1] != shards[0].baseOps[len(shards[0].baseOps)-1] {
			t.Fatalf("%s: shard %d logged its own copy of the write", label, i)
		}
		if sh.Epoch() != c.Epoch() {
			t.Fatalf("%s: shard %d at epoch %d, cluster at %d", label, i, sh.Epoch(), c.Epoch())
		}
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
	requireShared(t, c, "boot")
	if localShards(c)[0].Models().PathSim != nil {
		t.Fatal("the shared generation carries a full index")
	}
	boot := localShards(c)[0].Models()

	deltas := newTestDeltas(ref, "shared")
	ref2, _, err := IngestModels(ref, deltas, false, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Ingest(deltas, false); err != nil {
		t.Fatal(err)
	}
	requireShared(t, c, "ingest")
	if localShards(c)[0].Models() == boot {
		t.Fatal("ingest did not produce a new generation")
	}
	// The logged batch is the entry's own copy, not the caller's slice.
	deltas[0].Name = "scribbled"
	if got := localShards(c)[2].baseOps[1].deltas[0].Name; got == "scribbled" {
		t.Fatal("write log aliases the caller's batch")
	}

	// A restarted shard replays privately (bit-identical, own pointer)
	// and shares again from the next write on.
	restarted := localShards(c)[1]
	if err := restarted.Restart(); err != nil {
		t.Fatal(err)
	}
	if restarted.Models() == localShards(c)[0].Models() {
		t.Fatal("Restart borrowed the siblings' generation instead of replaying its log")
	}
	checkEquivalence(t, rand.New(rand.NewSource(1)), c, ref2, "restarted shard")
	deltas3 := newTestDeltas(ref2, "rejoin")
	ref3, _, err := IngestModels(ref2, deltas3, false, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Ingest(deltas3, false); err != nil {
		t.Fatal(err)
	}
	requireShared(t, c, "write after restart")
	checkEquivalence(t, rand.New(rand.NewSource(2)), c, ref3, "rejoined")

	// Back-to-back rebuilds from one seed are two writes, each built once.
	before := localShards(c)[0].Models()
	for i := 0; i < 2; i++ {
		if _, err := c.Rebuild(8); err != nil {
			t.Fatal(err)
		}
		requireShared(t, c, "rebuild")
		if now := localShards(c)[0].Models(); now == before {
			t.Fatal("rebuild reused the previous write's generation")
		} else {
			before = now
		}
	}
}

// TestBuildMemoConcurrentAndDivergent drives the shards directly: the
// same write arriving on all of them at once builds once, and shards
// whose histories differ never receive each other's models, even for an
// identical later batch.
func TestBuildMemoConcurrentAndDivergent(t *testing.T) {
	spec := testSpec()
	ref := BuildModels(6, spec)
	part := PartitionUniform(string(dblp.TypeAuthor), ref.PathSim.Dim(), 3)
	c, err := NewLocalCluster(3, part, spec, nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	shards := localShards(c)
	deltas := newTestDeltas(ref, "concurrent")
	var wg sync.WaitGroup
	for _, sh := range shards {
		wg.Add(1)
		go func(sh *LocalShard) {
			defer wg.Done()
			if _, _, err := sh.Ingest(deltas, false); err != nil {
				t.Error(err)
			}
		}(sh)
	}
	wg.Wait()
	for i, sh := range shards {
		if sh.Models() != shards[0].Models() {
			t.Fatalf("concurrent write: shard %d built its own models", i)
		}
	}

	// Shards 0 and 2 take batch x, shard 1 takes batch y: equal epochs,
	// different histories. The identical batch z on top must build twice.
	// (The memo remembers one write, so same-history shards go together.)
	refCur, _, err := IngestModels(ref, deltas, false, spec)
	if err != nil {
		t.Fatal(err)
	}
	x, y, z := newTestDeltas(refCur, "x"), newTestDeltas(refCur, "y"), newTestDeltas(refCur, "z")
	for _, step := range []struct {
		shard int
		batch []ingest.Delta
	}{{0, x}, {2, x}, {1, y}, {1, z}, {0, z}, {2, z}} {
		if _, _, err := shards[step.shard].Ingest(step.batch, false); err != nil {
			t.Fatalf("shard %d: %v", step.shard, err)
		}
	}
	if shards[2].Models() != shards[0].Models() {
		t.Fatal("shards with one history did not share")
	}
	if shards[1].Models() == shards[0].Models() {
		t.Fatal("shards with different histories share a generation")
	}
	has := func(sh *LocalShard, tag string) bool {
		return sh.Models().Corpus.Net.Lookup(dblp.TypeAuthor, "new-author-"+tag) >= 0
	}
	if !has(shards[0], "x") || has(shards[0], "y") || !has(shards[1], "y") || has(shards[1], "x") {
		t.Fatal("a shard received models built on another history")
	}
}
