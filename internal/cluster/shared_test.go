// One model generation per write: the shards of an in-process cluster
// hold the same *Models and the same log entry after every write,
// however the write reaches them, and only shards with the same history
// ever share.

package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hinet/internal/dblp"
	"hinet/internal/ingest"
	"hinet/internal/pathsim"
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

// TestWriteLogBounded: the replayable log never outgrows maxLogOps —
// a full log folds into a checkpoint of the generation the shard was
// retaining anyway — and a restart from checkpoint + log still
// reproduces the live generation bit for bit.
func TestWriteLogBounded(t *testing.T) {
	spec := testSpec()
	part := Partition{Of: string(dblp.TypeAuthor), Bounds: []int{0, 0}}
	c, err := NewLocalCluster(1, part, spec, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	sh := localShards(c)[0]
	net := sh.Models().Corpus.Net
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
			if n := len(sh.baseOps); n > maxLogOps {
				t.Fatalf("after %d writes the log holds %d entries, bound is %d", i+2, n, maxLogOps)
			}
		}
	}
	if sh.checkpoint == nil || sh.base+int64(len(sh.baseOps)) != sh.Epoch() {
		t.Fatalf("log of %d entries over a checkpoint at epoch %d does not reach epoch %d", len(sh.baseOps), sh.base, sh.Epoch())
	}

	ctx, epoch := context.Background(), c.Epoch()
	read := func() (rows [][]pathsim.Pair) {
		for x := 0; x < authors; x++ {
			row, err := c.TopKAt(ctx, epoch, "", x, authors)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row)
		}
		return rows
	}
	live, before := read(), sh.Models()
	if err := sh.Restart(); err != nil {
		t.Fatal(err)
	}
	if sh.Epoch() != epoch || sh.Models() == before {
		t.Fatalf("restart: epoch %d (want %d), replayed privately: %v", sh.Epoch(), epoch, sh.Models() != before)
	}
	replayed := read()
	for x := range live {
		pairsEqual(t, live[x], replayed[x], fmt.Sprintf("row %d after restart", x))
	}
	sameRanks(t, "after restart", sh.Models(), before)
}

// TestRetryEvicted pins the one retry loop: only an EpochError is
// retried, only while the generation the caller pins keeps moving, and
// at most twice.
func TestRetryEvicted(t *testing.T) {
	evicted := &EpochError{Shard: 1, Want: 1, Have: 3}
	other := fmt.Errorf("boom")
	for _, tc := range []struct {
		name   string
		errs   []error // what successive reads return
		moves  int     // how many loads return a new generation
		reads  int
		wantAt int64
		want   error
	}{
		{name: "first read answers", errs: []error{nil}, moves: 9, reads: 1, wantAt: 1},
		{name: "evicted once", errs: []error{evicted, nil}, moves: 9, reads: 2, wantAt: 2},
		{name: "evicted twice", errs: []error{evicted, evicted, nil}, moves: 9, reads: 3, wantAt: 3},
		{name: "gives up after two retries", errs: []error{evicted, evicted, evicted, nil}, moves: 9, reads: 3, wantAt: 3, want: evicted},
		{name: "generation did not move", errs: []error{evicted, nil}, moves: 0, reads: 1, wantAt: 1, want: evicted},
		{name: "other errors are final", errs: []error{other, nil}, moves: 9, reads: 1, wantAt: 1, want: other},
	} {
		live, reads, at := int64(1), 0, int64(0)
		err := RetryEvicted(live, func() int64 {
			if tc.moves > 0 {
				tc.moves--
				live++
			}
			return live
		}, func(epoch int64) error {
			at = epoch
			reads++
			return tc.errs[reads-1]
		})
		if err != tc.want || reads != tc.reads || at != tc.wantAt {
			t.Errorf("%s: err %v after %d reads, last at %d; want %v after %d, at %d", tc.name, err, reads, at, tc.want, tc.reads, tc.wantAt)
		}
	}
}
