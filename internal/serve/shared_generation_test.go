// A server builds one model generation per write, at any shard count:
// the shards and the store's snapshot hold the same network, the
// snapshot carries no index of its own, and everything that reads the
// index's size or state — stats, metrics, the brownout path — answers
// the same at one shard and at three.

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"hinet/internal/cluster"
	"hinet/internal/dblp"
	"hinet/internal/ingest"
	"hinet/internal/pathsim"
)

// ingestBody is a small valid batch against a server's current corpus.
func ingestBody(t *testing.T, s *Server, tag string) string {
	t.Helper()
	net := s.Snapshot().Corpus.Net
	paper := "shared-paper-" + tag
	body, err := json.Marshal(map[string]any{"deltas": []ingest.Delta{
		{Op: ingest.OpAddNode, Type: string(dblp.TypePaper), Name: paper},
		{Op: ingest.OpAddEdge, SrcType: string(dblp.TypePaper), Src: paper,
			DstType: string(dblp.TypeAuthor), Dst: net.Name(dblp.TypeAuthor, 2)},
		{Op: ingest.OpAddEdge, SrcType: string(dblp.TypePaper), Src: paper,
			DstType: string(dblp.TypeVenue), Dst: net.Name(dblp.TypeVenue, 1)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// requireOneGeneration fails unless the snapshot and every shard hold
// the same models and network, at the same epoch, with no full index.
func requireOneGeneration(t *testing.T, s *Server, epoch int64, label string) {
	t.Helper()
	snap, coord := s.Snapshot(), s.Coordinator()
	if snap.Epoch != epoch || coord.Epoch() != epoch {
		t.Fatalf("%s: store epoch %d, cluster epoch %d, want %d", label, snap.Epoch, coord.Epoch(), epoch)
	}
	if snap.Models.PathSim != nil {
		t.Fatalf("%s: sharded snapshot carries a full index", label)
	}
	for i := 0; i < coord.Shards(); i++ {
		m := coord.Shard(i).(*cluster.LocalShard).Models()
		if m != snap.Models || m.Corpus.Net != snap.Corpus.Net {
			t.Fatalf("%s: shard %d holds its own model set", label, i)
		}
	}
	// Between writes the process holds this generation only: the one it
	// replaced was let go when the snapshot went live.
	var evicted *cluster.EpochError
	if _, err := coord.TopKAt(context.Background(), epoch-1, "", 0, 5); !errors.As(err, &evicted) {
		t.Fatalf("%s: read at epoch %d = %v, want an EpochError (generation still retained)", label, epoch-1, err)
	}
}

func TestShardedServerSharesOneGeneration(t *testing.T) {
	single := newTestServer(t, Options{Seed: 4})
	sharded := newTestServer(t, Options{Seed: 4, Shards: 3})
	requireOneGeneration(t, sharded, 1, "boot")

	// Read balance: the bounds partition the scan work of the served
	// index over the same seed.
	net := single.Snapshot().Corpus.Net
	full, err := pathsim.NewRangeIndexCtx(context.Background(), net, pathAPVPA, 0, net.Count(dblp.TypeAuthor))
	if err != nil {
		t.Fatal(err)
	}
	want := cluster.PartitionByNNZ(string(dblp.TypeAuthor), full.Dim(), 3, full.RowNNZ)
	if got := sharded.Coordinator().Partition(); got.Of != want.Of || !slices.Equal(got.Bounds, want.Bounds) {
		t.Fatalf("partition %v, want %v", got, want)
	}

	body := ingestBody(t, sharded, "a")
	for _, s := range []*Server{single, sharded} {
		if code, out := do(t, s, "POST", "/v1/ingest", body); code != 200 {
			t.Fatalf("ingest = %d: %s", code, out)
		}
	}
	requireOneGeneration(t, sharded, 2, "ingest")

	// A restarted shard answers from its private replay, byte for byte,
	// and shares the generation again from the next write on. Rank and
	// cluster reads need no shard: they keep answering, with the unsharded
	// server's bytes, while the shard is down replaying its log.
	wholeNet := []string{"/v1/rank?metric=pagerank&top=20", "/v1/rank?metric=authority&top=20", "/v1/rank?metric=hub&top=20",
		"/v1/clusters?algo=rankclus", "/v1/clusters?algo=netclus"}
	want200 := make([]string, len(wholeNet))
	for i, p := range wholeNet {
		if code, body := do(t, single, "GET", p, ""); code != 200 {
			t.Fatalf("%s = %d: %s", p, code, body)
		} else {
			want200[i] = body
		}
	}
	var passes atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			for i, p := range wholeNet {
				if code, body := do(t, sharded, "GET", p, ""); code != 200 || body != want200[i] {
					t.Errorf("during restart %s diverged\nsingle  (200): %s\nsharded (%d): %s", p, want200[i], code, body)
					return
				}
			}
			passes.Add(1)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	// Restart until reads have completed inside a replay: on one core a
	// replay this short is not preempted, so none may.
	restarted := sharded.Coordinator().Shard(1).(*cluster.LocalShard)
	for passes.Load() == 0 {
		select {
		case <-done:
			t.FailNow() // the reader has said why
		default:
			runtime.Gosched()
		}
	}
	during := int64(0)
	for attempt := 0; attempt < 20 && during == 0; attempt++ {
		downAt := passes.Load()
		if err := restarted.Restart(); err != nil {
			t.Fatal(err)
		}
		during = passes.Load() - downAt
	}
	close(stop)
	<-done
	if during == 0 && runtime.GOMAXPROCS(0) > 1 {
		t.Fatal("no rank or cluster read completed while shard 1 replayed its log")
	}
	if restarted.Models() == sharded.Snapshot().Models {
		t.Fatal("Restart did not replay privately")
	}
	for _, p := range []string{"/v1/pathsim/topk?id=11&k=30", "/v1/pathsim/topk?path=A-P-A&id=3&k=10", "/v1/rank?metric=hub&top=20"} {
		c1, b1 := do(t, single, "GET", p, "")
		c2, b2 := do(t, sharded, "GET", p, "")
		if c1 != 200 || c1 != c2 || b1 != b2 {
			t.Fatalf("after restart %s diverged\nsingle  (%d): %s\nsharded (%d): %s", p, c1, b1, c2, b2)
		}
	}
	if code, out := do(t, sharded, "POST", "/v1/ingest", ingestBody(t, sharded, "b")); code != 200 {
		t.Fatalf("ingest after restart = %d: %s", code, out)
	}
	requireOneGeneration(t, sharded, 3, "ingest after restart")

	if code, out := do(t, sharded, "POST", "/v1/rebuild?seed=9", ""); code != 200 {
		t.Fatalf("rebuild = %d: %s", code, out)
	}
	requireOneGeneration(t, sharded, 4, "rebuild")
}

var metricLine = regexp.MustCompile(`(?m)^(hinet_pathsim_index_nnz|hinet_shard_nnz\{shard="\d+"\}) (\d+)$`)

// indexSize reads the default index's size off /v1/stats and /metrics.
func indexSize(t *testing.T, s *Server) (dim, nnz, metricNNZ, shardSum int) {
	t.Helper()
	var st struct {
		PathSim struct{ Dim, NNZ int } `json:"pathsim"`
	}
	if code := get(t, s, "GET", "/v1/stats", &st); code != 200 {
		t.Fatalf("/v1/stats = %d", code)
	}
	_, metrics := do(t, s, "GET", "/metrics", "")
	for _, m := range metricLine.FindAllStringSubmatch(metrics, -1) {
		v, _ := strconv.Atoi(m[2])
		if m[1] == "hinet_pathsim_index_nnz" {
			metricNNZ = v
		} else {
			shardSum += v
		}
	}
	return st.PathSim.Dim, st.PathSim.NNZ, metricNNZ, shardSum
}

// TestShardedIndexSizeParity: with no full index to measure, the sharded
// store reports the endpoint type's count and the sum of the shard
// slices — the same numbers the unsharded index has, at every epoch.
func TestShardedIndexSizeParity(t *testing.T) {
	single := newTestServer(t, Options{Seed: 4})
	sharded := newTestServer(t, Options{Seed: 4, Shards: 3})
	for epoch := 1; epoch <= 2; epoch++ {
		dim1, nnz1, met1, _ := indexSize(t, single)
		dim3, nnz3, met3, sum3 := indexSize(t, sharded)
		if dim1 == 0 || nnz1 == 0 || dim3 != dim1 || nnz3 != nnz1 || met1 != nnz1 || met3 != nnz1 || sum3 != nnz1 {
			t.Fatalf("epoch %d: unsharded dim %d nnz %d metric %d; sharded dim %d nnz %d metric %d shard sum %d",
				epoch, dim1, nnz1, met1, dim3, nnz3, met3, sum3)
		}
		body := ingestBody(t, single, fmt.Sprint(epoch))
		for _, s := range []*Server{single, sharded} {
			if code, out := do(t, s, "POST", "/v1/ingest", body); code != 200 {
				t.Fatalf("ingest = %d: %s", code, out)
			}
		}
	}
}

// TestShardedBrownoutParity: a degraded server answers the cache-only
// surfaces the same at one shard and at three — including a non-default
// path materialized (and its answer cached) before the brownout, which
// a sharded server used to shed for want of a snapshot-side path memo.
func TestShardedBrownoutParity(t *testing.T) {
	opts := Options{Seed: 4, MaxConcurrent: 4, SLOTargetP99: 10 * time.Millisecond,
		ControlInterval: -1, BrownoutEnter: 2, BrownoutExit: 2, BrownoutK: 5}
	single := newTestServer(t, opts)
	opts.Shards = 3
	sharded := newTestServer(t, opts)
	for _, s := range []*Server{single, sharded} {
		for _, p := range []string{"/v1/pathsim/topk?id=0&k=5", "/v1/pathsim/topk?path=A-P-V-P-A&id=3&k=5", "/v1/pathsim/topk?path=A-P-T-P-A&id=2&k=5"} {
			if code, out := do(t, s, "GET", p, ""); code != 200 {
				t.Fatalf("prime %s = %d: %s", p, code, out)
			}
		}
		for tick := 0; tick < 2; tick++ {
			for i := 0; i < 8; i++ {
				s.adm.lat.Observe(100 * time.Millisecond)
			}
			s.controlStep()
		}
		if !s.adm.Degraded() {
			t.Fatal("server did not enter brownout")
		}
	}
	for _, c := range []struct {
		path string
		code int
	}{
		{"/v1/pathsim/topk?id=0&k=50", 200},                 // default path, cached (k truncated to 5)
		{"/v1/pathsim/topk?id=1&k=5", 503},                  // default path, uncached
		{"/v1/pathsim/topk?path=A-P-V-P-A&id=3&k=5", 200},   // spelled-out default, cached
		{"/v1/pathsim/topk?path=A-P-V-P-A&id=4&k=5", 503},   // spelled-out default, uncached
		{"/v1/pathsim/topk?path=A-P-V-P-A&id=999&k=5", 400}, // id validation still precedes the cache
		{"/v1/pathsim/topk?path=A-P-A&id=0&k=5", 503},       // never materialized
		{"/v1/pathsim/topk?path=A-P-T-P-A&id=2&k=5", 200},   // materialized before the brownout, cached
		{"/v1/pathsim/topk?path=A-P-T-P-A&id=3&k=5", 503},   // materialized, uncached
	} {
		c1, b1 := do(t, single, "GET", c.path, "")
		c2, b2 := do(t, sharded, "GET", c.path, "")
		if c1 != c.code || c2 != c1 || b1 != b2 {
			t.Errorf("degraded %s: want %d\nsingle  (%d): %s\nsharded (%d): %s", c.path, c.code, c1, b1, c2, b2)
		}
	}
}

// liveHeapOf returns the heap a server built by boot keeps alive.
func liveHeapOf(boot func() *Server) (int64, *Server) {
	read := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := read()
	s := boot()
	return read() - before, s
}

// TestShardedLiveHeap: sharding one process must not multiply its
// memory — one network, one set of models, the index once (as slices).
func TestShardedLiveHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates the heap")
	}
	// The library-default corpus: large enough that network and index
	// dominate the fixed cost of a server.
	opts := Options{Seed: 4, ControlInterval: -1,
		Models: ModelConfig{Corpus: dblp.Config{AuthorsPerArea: 200, Papers: 2000}}}
	one, single := liveHeapOf(func() *Server { return New(opts) })
	defer single.Shutdown(context.Background())
	opts.Shards = 3
	three, sharded := liveHeapOf(func() *Server { return New(opts) })
	defer sharded.Shutdown(context.Background())
	t.Logf("live heap: unsharded %.1f MiB, 3 shards %.1f MiB (%.2fx)",
		float64(one)/(1<<20), float64(three)/(1<<20), float64(three)/float64(one))
	if float64(three) > 1.25*float64(one) {
		t.Fatalf("3-shard server keeps %d bytes alive, unsharded %d: more than 1.25x", three, one)
	}
	runtime.KeepAlive(single)
	runtime.KeepAlive(sharded)
}
