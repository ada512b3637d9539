// The live-heap ceiling of a served generation: what a server holds
// after its boot, measured the way bench's live_heap_mb measures it.

package cluster

import (
	"runtime"
	"testing"

	"hinet/internal/dblp"
)

// liveHeap is HeapAlloc after two collections: the second finishes the
// first one's sweep.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestServedGenerationHeap: a generation — its models and its default
// path's index, as one write publishes them — holds each relation once,
// as its matrices, and NetClus's results without its per-object
// posteriors. At 800 authors (the default corpus) and at 4 000, the two
// scales the benchmark's workloads boot. Each ceiling is the reading
// when it was set (1.00 and 4.46–4.47 MiB) plus 5 %. With the
// posteriors kept in the model the two read 1.18 and 5.22 MiB; with
// each read relation kept a second time as well, as a link log beside
// its matrices, 4 000 authors read 7.42 MiB.
func TestServedGenerationHeap(t *testing.T) {
	for _, c := range []struct {
		name    string
		corpus  dblp.Config
		ceiling float64 // MiB
	}{
		{"800 authors", dblp.Config{}, 1.04},
		{"4 000 authors", dblp.Config{AuthorsPerArea: 1000, Papers: 10_000}, 4.7},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := liveHeap()
			cl, err := NewLocalCluster(1, Partition{Of: string(dblp.TypeAuthor), Bounds: []int{0, 0}}, ModelSpec{Corpus: c.corpus}, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			live := float64(liveHeap()-before) / (1 << 20)
			runtime.KeepAlive(cl)
			t.Logf("a served generation at %s holds %.3f MiB", c.name, live)
			if live > c.ceiling {
				t.Errorf("a served generation at %s holds %.2f MiB, ceiling %.2f: a relation or a fitting state is kept again", c.name, live, c.ceiling)
			}
		})
	}
}
