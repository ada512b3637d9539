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

// TestServedGenerationHeap: a generation at 4 000 authors — its models
// and its default path's index, as one write publishes them — holds each
// relation once, as its matrices. With each read relation kept a second
// time, as a link log beside its matrices, this read 7.42 MiB.
func TestServedGenerationHeap(t *testing.T) {
	spec := ModelSpec{Corpus: dblp.Config{AuthorsPerArea: 1000, Papers: 10_000}}
	before := liveHeap()
	c, err := NewLocalCluster(1, Partition{Of: string(dblp.TypeAuthor), Bounds: []int{0, 0}}, spec, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	live := float64(liveHeap()-before) / (1 << 20)
	runtime.KeepAlive(c)
	t.Logf("a served generation at 4 000 authors holds %.3f MiB", live)
	const ceiling = 5.5 // MiB: the reading when it was set, 5.22–5.24, plus 5 %
	if live > ceiling {
		t.Errorf("a served generation holds %.2f MiB, ceiling %.2f: a relation is stored twice again", live, ceiling)
	}
}
