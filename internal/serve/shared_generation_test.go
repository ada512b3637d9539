// A server builds one model generation per write, at any shard count:
// the snapshot is the cluster's View, it carries no full index, and
// everything that reads the index's size or state — stats, metrics, the
// brownout path — answers the same at one shard and at three.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"hinet/internal/cluster"
	"hinet/internal/dblp"
	"hinet/internal/ingest"
	"hinet/internal/pathsim"
	"hinet/internal/stats"
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

// requireOneGeneration fails unless the snapshot holds the cluster's
// View, at the given epoch, with no full index, and every shard reports
// that epoch.
func requireOneGeneration(t *testing.T, s *Server, epoch int64, label string) {
	t.Helper()
	snap, coord := s.Snapshot(), s.Coordinator()
	if snap.Epoch != epoch || coord.View().Epoch != epoch || snap != coord.View() {
		t.Fatalf("%s: snapshot epoch %d, cluster epoch %d, want %d in one View", label, snap.Epoch, coord.View().Epoch, epoch)
	}
	if snap.Models.PathSim != nil {
		t.Fatalf("%s: sharded snapshot carries a full index", label)
	}
	for i, st := range coord.View().Stats() {
		if st.Epoch != epoch {
			t.Fatalf("%s: shard %d at epoch %d", label, i, st.Epoch)
		}
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

	// Whole-network reads and top-k answer with the unsharded server's
	// bytes.
	for _, p := range []string{"/v1/rank?metric=pagerank&top=20", "/v1/rank?metric=authority&top=20",
		"/v1/rank?metric=hub&top=20", "/v1/clusters?algo=rankclus", "/v1/clusters?algo=netclus",
		"/v1/pathsim/topk?id=11&k=30", "/v1/pathsim/topk?path=A-P-A&id=3&k=10"} {
		c1, b1 := do(t, single, "GET", p, "")
		c2, b2 := do(t, sharded, "GET", p, "")
		if c1 != 200 || c1 != c2 || b1 != b2 {
			t.Fatalf("after ingest %s diverged\nsingle  (%d): %s\nsharded (%d): %s", p, c1, b1, c2, b2)
		}
	}
	if code, out := do(t, sharded, "POST", "/v1/ingest", ingestBody(t, sharded, "b")); code != 200 {
		t.Fatalf("second ingest = %d: %s", code, out)
	}
	requireOneGeneration(t, sharded, 3, "second ingest")

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
// server reports the endpoint type's count and the sum of the shard
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
		ControlInterval: -1, BrownoutEnter: 2, BrownoutExit: 2}
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

// TestScrapeReadsOneGeneration: every scrape renders one View, loaded
// once, however fast writes publish beside it. In /metrics the snapshot,
// cluster and shard epochs agree and the index nnz is its shards' sum;
// /v1/stats reports one epoch at the top and in its cluster entry;
// /v1/cluster/shards reports one epoch for itself and every shard.
func TestScrapeReadsOneGeneration(t *testing.T) {
	s := newTestServer(t, Options{Shards: 3, ControlInterval: -1})
	get := func(target string) []byte {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", target, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}

	stop, done := make(chan struct{}), make(chan error, 1)
	go func() { // back-to-back 3-paper ingests
		rng := stats.NewRNG(11)
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			body, err := json.Marshal(map[string]any{"deltas": ingest.SamplePapers(s.Snapshot().Corpus, rng, 3)})
			if err != nil {
				done <- err
				return
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				done <- fmt.Errorf("ingest: status %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
	}()
	defer func() {
		close(stop)
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()

	series := regexp.MustCompile(`(?m)^(hinet_snapshot_epoch|hinet_cluster_epoch|hinet_shard_epoch|hinet_pathsim_index_nnz|hinet_shard_nnz)(?:\{shard="\d+"\})? (\d+)$`)
	for i := 0; i < 300; i++ {
		var snapEpoch, clusterEpoch, indexNNZ, shardNNZ int64
		var shardEpochs []int64
		for _, m := range series.FindAllStringSubmatch(string(get("/metrics")), -1) {
			n, err := strconv.ParseInt(m[2], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			switch m[1] {
			case "hinet_snapshot_epoch":
				snapEpoch = n
			case "hinet_cluster_epoch":
				clusterEpoch = n
			case "hinet_shard_epoch":
				shardEpochs = append(shardEpochs, n)
			case "hinet_pathsim_index_nnz":
				indexNNZ = n
			case "hinet_shard_nnz":
				shardNNZ += n
			}
		}
		if len(shardEpochs) != 3 {
			t.Fatalf("scrape %d: %d hinet_shard_epoch series, want 3", i, len(shardEpochs))
		}
		for _, e := range append(shardEpochs, clusterEpoch) {
			if e != snapEpoch {
				t.Fatalf("scrape %d: /metrics hinet_snapshot_epoch %d, cluster %d, shards %v: not one generation",
					i, snapEpoch, clusterEpoch, shardEpochs)
			}
		}
		if indexNNZ != shardNNZ {
			t.Fatalf("scrape %d: /metrics hinet_pathsim_index_nnz %d, shards sum to %d", i, indexNNZ, shardNNZ)
		}

		var st struct {
			Epoch   int64 `json:"epoch"`
			Cluster struct {
				Epoch int64 `json:"epoch"`
			} `json:"cluster"`
		}
		if err := json.Unmarshal(get("/v1/stats"), &st); err != nil {
			t.Fatal(err)
		}
		if st.Epoch != st.Cluster.Epoch {
			t.Fatalf("scrape %d: /v1/stats epoch %d, cluster.epoch %d", i, st.Epoch, st.Cluster.Epoch)
		}

		var sh struct {
			Epoch  int64 `json:"epoch"`
			Shards []struct {
				Epoch int64 `json:"epoch"`
			} `json:"shards"`
		}
		if err := json.Unmarshal(get("/v1/cluster/shards"), &sh); err != nil {
			t.Fatal(err)
		}
		for j, shard := range sh.Shards {
			if shard.Epoch != sh.Epoch {
				t.Fatalf("scrape %d: /v1/cluster/shards epoch %d, shard %d at %d", i, sh.Epoch, j, shard.Epoch)
			}
		}
	}
	if e := s.Snapshot().Epoch; e < 2 {
		t.Fatalf("no write published during the scrapes (epoch %d)", e)
	}
}
