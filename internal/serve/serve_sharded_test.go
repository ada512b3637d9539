// HTTP-layer parity across shard counts: an unsharded server — a
// one-shard cluster — and a 3-shard server booted from the same seed
// must answer every query surface with byte-identical JSON — same ids,
// same tie order, same float bits, same error strings — before and
// after an identical ingest and rebuild. (The coordinator-level bitwise
// suite lives in internal/cluster; this pins the handler plumbing on
// top of it.)

package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"regexp"
	"slices"
	"strings"
	"testing"

	"hinet/internal/dblp"
	"hinet/internal/ingest"
	"hinet/internal/obs"
)

// do runs one request (with optional body) and returns status + body.
func do(t *testing.T, s *Server, method, path, body string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func TestShardedServeParity(t *testing.T) {
	single := newTestServer(t, Options{Seed: 4})
	sharded := newTestServer(t, Options{Seed: 4, Shards: 3})
	if single.Coordinator().Shards() != 1 || sharded.Coordinator().Shards() != 3 {
		t.Fatal("servers did not boot a one-shard and a 3-shard coordinator")
	}

	name := url.QueryEscape(single.Snapshot().Corpus.Net.Name(dblp.TypeAuthor, 5))
	surfaces := []string{
		"/v1/pathsim/topk?id=0&k=5",
		"/v1/pathsim/topk?id=7&k=25",
		"/v1/pathsim/topk?id=7&k=25", // repeat: cache hit on both sides
		"/v1/pathsim/topk?path=A-P-A&id=3&k=10",
		"/v1/pathsim/topk?path=A-P-V-P-A&id=3&k=10", // spelled-out default path
		"/v1/pathsim/topk?path=A-P-T-P-A&id=1&k=8",
		"/v1/pathsim/topk?path=V-P-A-P-V&id=0&k=3", // endpoint type the partition does not cut
		"/v1/pathsim/topk?id=7&k=100000",           // k past the row population
		"/v1/pathsim/topk?name=" + name + "&k=5",
		"/v1/pathsim/topk?id=99999&k=5",        // 400: id out of range
		"/v1/pathsim/topk?id=0&k=5&path=A-P",   // 400: asymmetric path
		"/v1/pathsim/topk?id=0&k=5&path=A-X-A", // 400: unknown type
		"/v1/rank?metric=pagerank&top=12",
		"/v1/rank?metric=authority&top=12",
		"/v1/rank?metric=hub&top=12",
		"/v1/rank?metric=hub&top=99999", // k past the vector length
		"/v1/rank?metric=hub&top=0",     // empty selection
		"/v1/rank?metric=bogus",         // 400: unknown metric
		"/v1/clusters?algo=rankclus&top=4",
		"/v1/clusters?algo=netclus&top=4",
		"/v1/clusters?algo=bogus", // 400: unknown algo
	}
	// Symmetric paths with an adjacent repeated type are the ones that are
	// not Gram-shaped. The DBLP schema has no same-type relation, so each
	// is a 400 before any index is built: the materialized fallback of
	// pathsim.NewRangeIndexCtx is unreachable from HTTP.
	nonGram := []string{
		"/v1/pathsim/topk?id=0&k=5&path=A-A-A",
		"/v1/pathsim/topk?id=0&k=5&path=A-P-P-A",
		"/v1/pathsim/topk?id=0&k=5&path=P-P-P",
		"/v1/pathsim/topk?id=0&k=5&path=V-V-V",
		"/v1/pathsim/topk?id=0&k=5&path=author-author-author",
	}
	surfaces = append(surfaces, nonGram...)
	compare := func(stage string) {
		t.Helper()
		for _, p := range surfaces {
			c1, b1 := do(t, single, "GET", p, "")
			c2, b2 := do(t, sharded, "GET", p, "")
			if c1 != c2 || b1 != b2 {
				t.Fatalf("%s: %s diverged\nsingle  (%d): %s\nsharded (%d): %s", stage, p, c1, b1, c2, b2)
			}
			if slices.Contains(nonGram, p) && c1 != 400 {
				t.Fatalf("%s: %s = %d, want 400: %s", stage, p, c1, b1)
			}
		}
	}
	compare("epoch1")

	// Identical ingest into both; the new generation must stay in
	// lockstep (each coordinator builds the whole View before it publishes).
	net := single.Snapshot().Corpus.Net
	deltas := []ingest.Delta{
		{Op: ingest.OpAddNode, Type: string(dblp.TypeAuthor), Name: "parity-author"},
		{Op: ingest.OpAddNode, Type: string(dblp.TypePaper), Name: "parity-paper"},
		{Op: ingest.OpAddEdge, SrcType: string(dblp.TypePaper), Src: "parity-paper",
			DstType: string(dblp.TypeAuthor), Dst: "parity-author"},
		{Op: ingest.OpAddEdge, SrcType: string(dblp.TypePaper), Src: "parity-paper",
			DstType: string(dblp.TypeAuthor), Dst: net.Name(dblp.TypeAuthor, 2)},
		{Op: ingest.OpAddEdge, SrcType: string(dblp.TypePaper), Src: "parity-paper",
			DstType: string(dblp.TypeVenue), Dst: net.Name(dblp.TypeVenue, 1)},
	}
	body, err := json.Marshal(map[string]any{"deltas": deltas})
	if err != nil {
		t.Fatal(err)
	}
	c1, b1 := do(t, single, "POST", "/v1/ingest", string(body))
	c2, b2 := do(t, sharded, "POST", "/v1/ingest", string(body))
	if c1 != 200 || c2 != 200 {
		t.Fatalf("ingest: single %d %s / sharded %d %s", c1, b1, c2, b2)
	}
	// The write responses carry wall-clock build_seconds, so they are
	// compared structurally (epoch + applied summary), not byte-wise.
	var ir1, ir2 struct {
		Epoch   int64          `json:"epoch"`
		Applied ingest.Summary `json:"applied"`
	}
	if err := json.Unmarshal([]byte(b1), &ir1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b2), &ir2); err != nil {
		t.Fatal(err)
	}
	if ir1.Epoch != 2 || ir1.Epoch != ir2.Epoch || ir1.Applied != ir2.Applied {
		t.Fatalf("ingest responses diverged:\n%s\n%s", b1, b2)
	}
	if ep := sharded.Coordinator().View().Epoch; ep != 2 {
		t.Fatalf("coordinator epoch %d after ingest, want 2", ep)
	}
	// A rejected batch is rejected identically and moves no epoch.
	bad := `{"deltas":[{"op":"add_edge","src_type":"paper","src":"no-such-paper","dst_type":"author","dst":"nobody"}]}`
	c1, b1 = do(t, single, "POST", "/v1/ingest", bad)
	c2, b2 = do(t, sharded, "POST", "/v1/ingest", bad)
	if c1 != 400 || c1 != c2 || b1 != b2 {
		t.Fatalf("bad ingest: single %d %s / sharded %d %s", c1, b1, c2, b2)
	}
	if ep := sharded.Coordinator().View().Epoch; ep != 2 {
		t.Fatalf("rejected batch moved coordinator epoch to %d", ep)
	}
	compare("epoch2")

	// The skew surface: present and populated sharded, 404 single, and
	// the /v1/stats cluster entry keeps the same shape in both modes.
	code, shardsBody := do(t, sharded, "GET", "/v1/cluster/shards", "")
	if code != 200 {
		t.Fatalf("/v1/cluster/shards = %d", code)
	}
	var sb struct {
		Shards []struct {
			ID    int   `json:"id"`
			Epoch int64 `json:"epoch"`
			NNZ   int   `json:"nnz"`
			Rows  int   `json:"rows"`
		} `json:"shards"`
		Epoch     int64   `json:"epoch"`
		Partition []int   `json:"partition"`
		Skew      float64 `json:"skew"`
	}
	if err := json.Unmarshal([]byte(shardsBody), &sb); err != nil {
		t.Fatal(err)
	}
	if len(sb.Shards) != 3 || sb.Epoch != 2 || sb.Skew <= 0 {
		t.Fatalf("shard stats payload: %s", shardsBody)
	}
	totalNNZ := 0
	for _, sh := range sb.Shards {
		if sh.Epoch != 2 {
			t.Fatalf("shard %d at epoch %d, want 2", sh.ID, sh.Epoch)
		}
		totalNNZ += sh.NNZ
	}
	if want := sharded.Snapshot().IndexNNZ; totalNNZ != want {
		t.Fatalf("per-shard nnz sums to %d, index has %d", totalNNZ, want)
	}
	if code, _ := do(t, single, "GET", "/v1/cluster/shards", ""); code != 404 {
		t.Fatalf("unsharded /v1/cluster/shards = %d, want 404", code)
	}
	for _, s := range []*Server{single, sharded} {
		var st struct {
			Cluster map[string]any `json:"cluster"`
		}
		_, body := do(t, s, "GET", "/v1/stats", "")
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"shards", "epoch", "skew", "scatters"} {
			if _, ok := st.Cluster[key]; !ok {
				t.Fatalf("stats cluster entry missing %q: %v", key, st.Cluster)
			}
		}
	}

	// Metrics: the sharded process exposes the hinet_shard_* series.
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	sharded.Handler().ServeHTTP(rec, req)
	for _, series := range []string{"hinet_cluster_shards 3", "hinet_shard_nnz{shard=\"0\"}", "hinet_shard_nnz{shard=\"2\"}", "hinet_cluster_epoch 2"} {
		if !bytes.Contains(rec.Body.Bytes(), []byte(series)) {
			t.Fatalf("/metrics missing %q", series)
		}
	}
	rec = httptest.NewRecorder()
	single.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if bytes.Contains(rec.Body.Bytes(), []byte("hinet_shard_")) {
		t.Fatal("unsharded /metrics exposes shard series")
	}

	// Rebuild through the sharded write path: both sides reseed and the
	// parity surfaces stay in lockstep at epoch 3.
	c1, b1 = do(t, single, "POST", "/v1/rebuild?seed=11", "")
	c2, b2 = do(t, sharded, "POST", "/v1/rebuild?seed=11", "")
	var rr1, rr2 struct {
		Epoch int64 `json:"epoch"`
		Seed  int64 `json:"seed"`
	}
	if json.Unmarshal([]byte(b1), &rr1) != nil || json.Unmarshal([]byte(b2), &rr2) != nil ||
		c1 != 200 || c1 != c2 || rr1 != rr2 || rr1.Epoch != 3 || rr1.Seed != 11 {
		t.Fatalf("rebuild: single %d %s / sharded %d %s", c1, b1, c2, b2)
	}
	if ep := sharded.Coordinator().View().Epoch; ep != 3 {
		t.Fatalf("coordinator epoch %d after rebuild, want 3", ep)
	}
	compare("epoch3")
}

var shardLoadCounters = regexp.MustCompile(`"queries": \d+|hinet_cluster_scatters_total \d+`)

// TestRankAndClustersTouchNoShard: ranking and clustering are functions
// of the whole network, answered from the snapshot the request holds.
// At three shards those reads leave every shard's query counter and the
// scatter counter where they were, their traces have no scatter,
// shard<i> or merge stage, and a rank request allocates what it does at
// one shard.
func TestRankAndClustersTouchNoShard(t *testing.T) {
	single := newTestServer(t, Options{Seed: 4})
	sharded := newTestServer(t, Options{Seed: 4, Shards: 3})
	counters := func() []string {
		_, shards := do(t, sharded, "GET", "/v1/cluster/shards", "")
		_, metrics := do(t, sharded, "GET", "/metrics", "")
		return shardLoadCounters.FindAllString(shards+metrics, -1)
	}
	if code, out := do(t, sharded, "GET", "/v1/pathsim/topk?id=0&k=5", ""); code != 200 {
		t.Fatalf("topk = %d: %s", code, out)
	}
	before := counters()
	if want := []string{`"queries": 1`, `"queries": 1`, `"queries": 1`, "hinet_cluster_scatters_total 1"}; !slices.Equal(before, want) {
		t.Fatalf("counters after one top-k = %v, want %v", before, want)
	}
	for i := 0; i < 5; i++ {
		for _, p := range []string{
			"/v1/rank?metric=pagerank&debug=1", "/v1/rank?metric=authority&debug=1", "/v1/rank?metric=hub&debug=1",
			"/v1/clusters?algo=rankclus&debug=1", "/v1/clusters?algo=netclus&debug=1",
		} {
			var body struct {
				Trace *obs.TraceJSON `json:"trace"`
			}
			if code := get(t, sharded, "GET", p, &body); code != 200 || body.Trace == nil {
				t.Fatalf("%s = %d, trace %v", p, code, body.Trace)
			}
			var walk func([]*obs.SpanJSON)
			walk = func(spans []*obs.SpanJSON) {
				for _, sp := range spans {
					if sp.Stage == "scatter" || sp.Stage == "merge" || strings.HasPrefix(sp.Stage, "shard") {
						t.Errorf("%s: trace has a %q stage", p, sp.Stage)
					}
					walk(sp.Children)
				}
			}
			walk(body.Trace.Stages)
		}
	}
	if after := counters(); !slices.Equal(after, before) {
		t.Fatalf("rank and cluster reads moved the shard counters: %v -> %v", before, after)
	}

	if raceEnabled {
		return // race instrumentation perturbs allocation counts
	}
	allocs := func(s *Server) float64 {
		return testing.AllocsPerRun(100, func() {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/rank?top=10", nil))
			if rec.Code != 200 {
				t.Fatalf("rank = %d", rec.Code)
			}
		})
	}
	if one, three := allocs(single), allocs(sharded); one != three {
		t.Fatalf("/v1/rank allocates %.0f times at one shard, %.0f at three", one, three)
	}
}
