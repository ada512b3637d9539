// Concurrency suite (run under -race in CI): scatter-gather reads and
// ingests proceed concurrently while the published epoch stays
// monotone, reads only ever see fully published generations, and the
// final epoch accounts exactly for the writes that succeeded.

package cluster

import (
	"context"
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
	var readOK atomic.Uint64
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
	}

	// Epoch monotonicity watcher: the published View's.
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := c.View().Epoch
		for {
			select {
			case <-stop:
				return
			default:
			}
			if e := c.View().Epoch; e < last {
				fail("coordinator epoch went backwards: %d -> %d", last, e)
				return
			} else {
				last = e
			}
		}
	}()

	// Scatter-gather readers. Each holds the View it read from, so no
	// write can make it fail: any error is a bug. Half the reads take a
	// path no write builds, so readers of one View build and memoize its
	// ranges side by side.
	dim := ref.PathSim.Dim()
	paths := []string{"", PathAPA.String()}
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
				pairs, ep, err := c.TopK(ctx, paths[rng.Intn(len(paths))], x, k)
				if err != nil {
					fail("reader: %v", err)
					return
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

	// Writer: sequential ingests through the coordinator,
	// mirrored into the single-process reference.
	refCur := ref
	for w := 0; w < writes; w++ {
		deltas := newTestDeltas(refCur, fmt.Sprintf("race-%d", w))
		next, _, err := IngestModels(refCur, deltas, false, spec)
		if err != nil {
			t.Fatalf("reference ingest %d: %v", w, err)
		}
		refCur = next
		v, _, err := c.Ingest(deltas, false)
		if err != nil {
			t.Fatalf("cluster ingest %d: %v", w, err)
		}
		if want := int64(w + 2); v.Epoch != want {
			t.Fatalf("ingest %d published epoch %d, want %d", w, v.Epoch, want)
		}
	}
	// One rejected batch must change nothing (validation gate).
	badEp := c.View().Epoch
	if _, _, err := c.Ingest([]ingest.Delta{{Op: ingest.OpAddEdge,
		SrcType: "paper", Src: "no-such-paper", DstType: "author", Dst: "nobody"}}, false); err == nil {
		t.Fatal("invalid batch should be rejected")
	}
	if c.View().Epoch != badEp {
		t.Fatalf("rejected batch moved the epoch %d -> %d", badEp, c.View().Epoch)
	}

	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Exact final-epoch accounting: boot(1) + every accepted write.
	want := int64(writes + 1)
	if c.View().Epoch != want {
		t.Fatalf("final coordinator epoch %d, want %d", c.View().Epoch, want)
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
	t.Logf("reads ok=%d", readOK.Load())
}
