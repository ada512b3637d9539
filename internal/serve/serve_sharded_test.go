// HTTP-layer parity across shard counts: an unsharded server — a
// one-shard cluster — and a 3-shard server booted from the same seed
// must answer every query surface with byte-identical JSON — same ids,
// same tie order, same float bits, same error strings — before and
// after an identical ingest and rebuild. (The coordinator-level bitwise
// suite lives in internal/cluster; this pins the handler plumbing on
// top of it.)

package serve

import (
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"hinet/internal/dblp"
	"hinet/internal/ingest"
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
	if ep := sharded.Snapshot().Epoch; ep != 2 {
		t.Fatalf("coordinator epoch %d after ingest, want 2", ep)
	}
	// A rejected batch is rejected identically and moves no epoch.
	bad := `{"deltas":[{"op":"add_edge","src_type":"paper","src":"no-such-paper","dst_type":"author","dst":"nobody"}]}`
	c1, b1 = do(t, single, "POST", "/v1/ingest", bad)
	c2, b2 = do(t, sharded, "POST", "/v1/ingest", bad)
	if c1 != 400 || c1 != c2 || b1 != b2 {
		t.Fatalf("bad ingest: single %d %s / sharded %d %s", c1, b1, c2, b2)
	}
	if ep := sharded.Snapshot().Epoch; ep != 2 {
		t.Fatalf("rejected batch moved coordinator epoch to %d", ep)
	}
	compare("epoch2")

	// No surface exposes the shards: the endpoint is the mux's 404 and
	// /metrics carries no shard or cluster series.
	if code, _ := do(t, sharded, "GET", "/v1/cluster/shards", ""); code != 404 {
		t.Fatalf("sharded /v1/cluster/shards = %d, want 404", code)
	}
	if _, metrics := do(t, sharded, "GET", "/metrics", ""); strings.Contains(metrics, "hinet_shard_") || strings.Contains(metrics, "hinet_cluster_") {
		t.Fatal("sharded /metrics exposes shard series")
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
	if ep := sharded.Snapshot().Epoch; ep != 3 {
		t.Fatalf("coordinator epoch %d after rebuild, want 3", ep)
	}
	compare("epoch3")
}

// TestRankAndClustersTouchNoShard: ranking and clustering are functions
// of the whole network, answered from the snapshot the request holds, so
// a rank request allocates at three shards what it does at one.
func TestRankAndClustersTouchNoShard(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	single := newTestServer(t, Options{Seed: 4})
	sharded := newTestServer(t, Options{Seed: 4, Shards: 3})
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
