// Concurrency suite (run under -race in CI): scatter-gather reads,
// ingest fan-out, and shard restarts all proceed concurrently while
// per-shard and coordinator epochs stay monotone, reads only ever see
// fully published generations, and the final epoch accounts exactly
// for the writes that succeeded — the PR 6 saturation-race pattern
// extended across the shard boundary.

package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hinet/internal/dblp"
	"hinet/internal/ingest"
	"hinet/internal/pathsim"
)

func raceSpec() ModelSpec {
	return ModelSpec{Corpus: dblp.Config{
		VenuesPerArea:  2,
		AuthorsPerArea: 15,
		TermsPerArea:   10,
		SharedTerms:    4,
		Papers:         90,
	}}
}

// TestPreviousEpochReadRace pins the genAt/newGeneration interleaving:
// lock-free readers querying the retained previous generation follow
// generation.prev at the same time the next write trims the chain
// (prev.prev → nil). Run under -race; before prev became an atomic
// pointer the detector flagged this as a data race.
func TestPreviousEpochReadRace(t *testing.T) {
	const shards = 2
	spec := raceSpec()
	seed := int64(11)
	ref := BuildModels(seed, spec)
	part := PartitionByNNZ(string(dblp.TypeAuthor), ref.PathSim.Dim(), shards, ref.PathSim.M.RowNNZ)
	c, err := NewLocalCluster(shards, part, spec, nil, seed)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	dim := ref.PathSim.Dim()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				sh := c.Shard(rng.Intn(shards))
				// Deliberately one epoch behind the shard: the read that
				// must traverse the prev link during a write's fan-out.
				ep := max(sh.Epoch()-1, 1)
				_, err := sh.TopK(ctx, ep, "", rng.Intn(dim), 5)
				if err != nil {
					var ee *EpochError
					if !errors.As(err, &ee) {
						t.Errorf("previous-epoch reader: unexpected error: %v", err)
						return
					}
				}
			}
		}(r)
	}

	refCur := ref
	for w := 0; w < 6; w++ {
		deltas := newTestDeltas(refCur, fmt.Sprintf("prev-%d", w))
		next, _, err := IngestModels(refCur, deltas, false, spec)
		if err != nil {
			t.Fatalf("reference ingest %d: %v", w, err)
		}
		refCur = next
		if _, _, err := c.Ingest(deltas, false); err != nil {
			t.Fatalf("cluster ingest %d: %v", w, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestClusterRace(t *testing.T) {
	const shards = 3
	const writes = 5
	spec := raceSpec()
	seed := int64(7)
	ref := BuildModels(seed, spec)
	part := PartitionByNNZ(string(dblp.TypeAuthor), ref.PathSim.Dim(), shards, ref.PathSim.M.RowNNZ)
	c, err := NewLocalCluster(shards, part, spec, nil, seed)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readOK, readEpochMiss atomic.Uint64
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
	}

	// Epoch monotonicity watchers: the coordinator and every shard.
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := c.Epoch()
		lastShard := make([]int64, shards)
		for i := range lastShard {
			lastShard[i] = c.Shard(i).Epoch()
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if e := c.Epoch(); e < last {
				fail("coordinator epoch went backwards: %d -> %d", last, e)
				return
			} else {
				last = e
			}
			for i := 0; i < shards; i++ {
				if e := c.Shard(i).Epoch(); e < lastShard[i] {
					fail("shard %d epoch went backwards: %d -> %d", i, lastShard[i], e)
					return
				} else {
					lastShard[i] = e
				}
			}
		}
	}()

	// Scatter-gather readers. A read may fail with an EpochError while
	// a shard replays its log mid-restart; any other failure is a bug.
	dim := ref.PathSim.Dim()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				x, k := rng.Intn(dim), 1+rng.Intn(10)
				pairs, ep, err := c.TopK(ctx, "", x, k)
				if err != nil {
					var ee *EpochError
					if !errors.As(err, &ee) {
						fail("reader: unexpected error: %v", err)
						return
					}
					readEpochMiss.Add(1)
					continue
				}
				if ep < 1 || ep > writes+1 {
					fail("reader: answered at impossible epoch %d", ep)
					return
				}
				// Sanity on the merged answer: sorted, deduped, in range.
				for i, p := range pairs {
					if p.ID < 0 || (i > 0 && pathsim.ComparePairs(pairs[i-1], p) >= 0) {
						fail("reader: merged answer out of order at %d", i)
						return
					}
				}
				readOK.Add(1)
			}
		}(r)
	}

	// Restart loop: bounce shards while traffic flows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(55))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sh := c.Shard(rng.Intn(shards)).(*LocalShard)
			before := sh.Epoch()
			if err := sh.Restart(); err != nil {
				fail("restart: %v", err)
				return
			}
			if after := sh.Epoch(); after < before {
				fail("restart dropped shard epoch %d -> %d", before, after)
				return
			}
		}
	}()

	// Writer: sequential ingest fan-outs through the coordinator,
	// mirrored into the single-process reference.
	refCur := ref
	for w := 0; w < writes; w++ {
		deltas := newTestDeltas(refCur, fmt.Sprintf("race-%d", w))
		next, _, err := IngestModels(refCur, deltas, false, spec)
		if err != nil {
			t.Fatalf("reference ingest %d: %v", w, err)
		}
		refCur = next
		ep, _, err := c.Ingest(deltas, false)
		if err != nil {
			t.Fatalf("cluster ingest %d: %v", w, err)
		}
		if want := int64(w + 2); ep != want {
			t.Fatalf("ingest %d published epoch %d, want %d", w, ep, want)
		}
	}
	// One rejected batch must change nothing (validation gate).
	badEp := c.Epoch()
	if _, _, err := c.Ingest([]ingest.Delta{{Op: ingest.OpAddEdge,
		SrcType: "paper", Src: "no-such-paper", DstType: "author", Dst: "nobody"}}, false); err == nil {
		t.Fatal("invalid batch should be rejected")
	}
	if c.Epoch() != badEp {
		t.Fatalf("rejected batch moved the epoch %d -> %d", badEp, c.Epoch())
	}

	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Exact final-epoch accounting: boot(1) + every accepted write, on
	// the coordinator and every shard.
	want := int64(writes + 1)
	if c.Epoch() != want {
		t.Fatalf("final coordinator epoch %d, want %d", c.Epoch(), want)
	}
	for i := 0; i < shards; i++ {
		if e := c.Shard(i).Epoch(); e != want {
			t.Fatalf("final shard %d epoch %d, want %d", i, e, want)
		}
	}
	// And the final state is bitwise the single-process one.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		x := rng.Intn(refCur.PathSim.Dim())
		got, ep, err := c.TopK(ctx, "", x, 10)
		if err != nil || ep != want {
			t.Fatalf("final TopK: epoch %d err %v", ep, err)
		}
		pairsEqual(t, refCur.PathSim.TopK(x, 10), got, "final state")
	}
	t.Logf("reads ok=%d epoch-miss=%d", readOK.Load(), readEpochMiss.Load())
}
