// Byte parity of the response path: for every endpoint and status the
// handler's body must equal what the previous implementation sent —
// the payload assembled as map[string]any and written by
// json.Encoder with SetIndent("", "  "). The reference payloads below
// are that implementation, kept as the oracle.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"hinet/internal/chaos"
	"hinet/internal/cluster"
	"hinet/internal/dblp"
	"hinet/internal/eval"
	"hinet/internal/hin"
	"hinet/internal/ingest"
	"hinet/internal/obs"
	"hinet/internal/pathsim"
	"hinet/internal/sparse"
)

// refJSON is the reference encoder.
func refJSON(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return b.String()
}

// refRow is the (id, name, score) row of the reference payloads.
type refRow struct {
	ID    int     `json:"id"`
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

func refError(format string, args ...any) any {
	return map[string]string{"error": fmt.Sprintf(format, args...)}
}

func refShed(s *Server, class string) any {
	return map[string]any{"error": "overloaded", "class": class, "retry_after_ms": s.adm.retryAfterMS()}
}

func refTopK(snap *cluster.View, endpoint hin.Type, pathKey string, x, k int, source string, pairs []pathsim.Pair) map[string]any {
	results := make([]refRow, len(pairs))
	for i, p := range pairs {
		results[i] = refRow{ID: p.ID, Name: snap.Corpus.Net.Name(endpoint, p.ID), Score: p.Score}
	}
	return map[string]any{
		"query":   map[string]any{"id": x, "name": snap.Corpus.Net.Name(endpoint, x)},
		"path":    pathKey,
		"k":       k,
		"epoch":   snap.Epoch,
		"source":  source,
		"results": results,
	}
}

func refRank(snap *cluster.View, metric string, top int) map[string]any {
	var scores []float64
	var ids []int
	var iters int
	var converged bool
	switch metric {
	case "pagerank":
		scores, iters, converged = snap.PageRank.Scores, snap.PageRank.Iterations, snap.PageRank.Converged
		ids = snap.PageRank.TopK(top)
	case "authority":
		scores, iters, converged = snap.HITS.Authority, snap.HITS.Iterations, snap.HITS.Converged
		ids = snap.HITS.TopAuthorities(top)
	case "hub":
		scores, iters, converged = snap.HITS.Hub, snap.HITS.Iterations, snap.HITS.Converged
		ids = snap.HITS.TopHubs(top)
	}
	rows := make([]refRow, 0, len(ids))
	for _, id := range ids {
		rows = append(rows, refRow{ID: id, Name: snap.Corpus.Net.Name(dblp.TypeAuthor, id), Score: scores[id]})
	}
	return map[string]any{
		"metric":     metric,
		"graph":      pathAPA.String(),
		"epoch":      snap.Epoch,
		"iterations": iters,
		"converged":  converged,
		"top":        rows,
	}
}

// nmiAligned is the reference NMI /v1/clusters reports: eval.NMI over
// the population both labelings cover.
func nmiAligned(truth, assign []int) float64 {
	n := min(len(truth), len(assign))
	return eval.NMI(truth[:n], assign[:n])
}

func refClusters(snap *cluster.View, algo string, top int) map[string]any {
	c := snap.Corpus
	if algo == "rankclus" {
		m := snap.RankClus
		clusters := make([]map[string]any, m.K)
		for k := 0; k < m.K; k++ {
			venues := make([]refRow, 0, top)
			for _, v := range m.TopX(k, top) {
				venues = append(venues, refRow{ID: v, Name: c.Net.Name(dblp.TypeVenue, v), Score: m.RankX[k][v]})
			}
			authors := make([]refRow, 0, top)
			for _, a := range m.TopY(k, top) {
				authors = append(authors, refRow{ID: a, Name: c.Net.Name(dblp.TypeAuthor, a), Score: m.RankY[k][a]})
			}
			clusters[k] = map[string]any{"id": k, "venues": venues, "authors": authors}
		}
		return map[string]any{
			"algo":     algo,
			"epoch":    snap.Epoch,
			"k":        m.K,
			"nmi":      nmiAligned(c.VenueArea, m.Assign),
			"clusters": clusters,
		}
	}
	m := snap.NetClus
	attrs := []struct {
		idx int
		t   hin.Type
	}{{0, dblp.TypeAuthor}, {1, dblp.TypeVenue}, {2, dblp.TypeTerm}}
	clusters := make([]map[string]any, m.K)
	for k := 0; k < m.K; k++ {
		entry := map[string]any{"id": k}
		for _, at := range attrs {
			rows := make([]refRow, 0, top)
			for _, o := range m.TopAttr(at.idx, k, top) {
				rows = append(rows, refRow{ID: o, Name: c.Net.Name(at.t, o), Score: m.RankDist[at.idx][k][o]})
			}
			entry[string(at.t)+"s"] = rows
		}
		clusters[k] = entry
	}
	return map[string]any{
		"algo":      algo,
		"epoch":     snap.Epoch,
		"k":         m.K,
		"nmi_paper": nmiAligned(c.PaperArea, m.AssignCenter),
		"nmi_venue": nmiAligned(c.VenueArea, m.AssignAttr(1)),
		"clusters":  clusters,
	}
}

func refStats(s *Server, snap *cluster.View) map[string]any {
	quant := func(h *obs.Hist) map[string]any {
		return map[string]any{
			"count":  h.Count(),
			"p50_us": float64(h.Quantile(0.50)) / 1e3,
			"p95_us": float64(h.Quantile(0.95)) / 1e3,
			"p99_us": float64(h.Quantile(0.99)) / 1e3,
		}
	}
	latency := make(map[string]any)
	for _, f := range s.obs.Families() {
		entry := quant(f.Latency())
		stages := make(map[string]any)
		for _, stage := range f.Stages() {
			stages[stage] = quant(f.Stage(stage))
		}
		entry["stages"] = stages
		latency[f.Name()] = entry
	}
	objects := map[string]int{}
	for _, t := range snap.Corpus.Net.Types() {
		objects[string(t)] = snap.Corpus.Net.Count(t)
	}
	es := snap.Corpus.Net.PathEngine().Stats()
	return map[string]any{
		"epoch":         snap.Epoch,
		"seed":          snap.Seed,
		"built_at":      snap.BuiltAt.UTC().Format(time.RFC3339Nano),
		"build_seconds": snap.BuildTime.Seconds(),
		"objects":       objects,
		"pathsim":       map[string]int{"dim": snap.IndexDim, "nnz": snap.IndexNNZ},
		"metapath": map[string]any{
			"cache_hits":      es.Hits,
			"cache_misses":    es.Misses,
			"cache_entries":   es.Entries,
			"products":        es.Products,
			"gram_products":   es.Grams,
			"transposes":      es.Transposes,
			"product_seconds": es.ProductTime.Seconds(),
			"gram_seconds":    es.GramTime.Seconds(),
		},
		"cache": s.cache.Stats(),
		"ingest": map[string]any{
			"batches":       s.ing.batches.Load(),
			"deltas":        s.ing.deltas.Load(),
			"rejected":      s.ing.rejected.Load(),
			"apply_seconds": time.Duration(s.ing.nanos.Load()).Seconds(),
		},
		"latency":            latency,
		"workers":            sparse.Parallelism(0),
		"max_concurrent":     cap(s.adm.sem),
		"admission_rejected": s.rejAd.Load(),
		"admission": map[string]any{
			"limit":              s.adm.Limit(),
			"floor":              s.adm.floor,
			"ceiling":            s.adm.ceil,
			"inflight":           s.adm.inflight.Load(),
			"degraded":           s.adm.Degraded(),
			"windowed_p99_us":    float64(s.adm.windowedP99.Load()) / 1e3,
			"slo_target_p99_us":  float64(s.adm.slo) / 1e3,
			"shed_query":         s.adm.shedQuery.Load(),
			"shed_write":         s.adm.shedWrite.Load(),
			"brownouts":          s.adm.brownouts.Load(),
			"degraded_responses": s.adm.degradedServed.Load(),
			"timeouts":           s.adm.timeouts.Load(),
		},
	}
}

func refSlowlog(s *Server) map[string]any {
	render := func(traces []*obs.Trace) []*obs.TraceJSON {
		out := make([]*obs.TraceJSON, len(traces))
		for i, t := range traces {
			out[i] = t.Snapshot()
		}
		return out
	}
	return map[string]any{"slowest": render(s.obs.Log().Slowest()), "recent": render(s.obs.Log().Recent())}
}

// serveBody runs one request and checks the framing every JSON response
// now carries: the content type and a Content-Length equal to the body.
func serveBody(t *testing.T, s *Server, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s %s: Content-Type = %q", method, target, ct)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("%s %s: Content-Length = %q, body is %d bytes", method, target, cl, rec.Body.Len())
	}
	return rec
}

// expect compares one response with its reference. A debug=1 request
// echoes its own (timed, hence unrepeatable) span tree: that one member
// is read back from the response and placed in the reference, which
// still pins where it sits and how it is indented.
func expect(t *testing.T, rec *httptest.ResponseRecorder, target string, code int, ref any) {
	t.Helper()
	if rec.Code != code {
		t.Fatalf("%s: status %d, want %d\n%s", target, rec.Code, code, rec.Body.String())
	}
	if payload, ok := ref.(map[string]any); ok && strings.Contains(target, "debug=1") {
		var echo struct {
			Trace *obs.TraceJSON `json:"trace"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &echo); err != nil || echo.Trace == nil {
			t.Fatalf("%s: no trace echoed (err %v)\n%s", target, err, rec.Body.String())
		}
		payload["trace"] = echo.Trace
	}
	if want := refJSON(t, ref); rec.Body.String() != want {
		t.Fatalf("%s: body differs from the reference encoding\n--- got\n%s--- want\n%s", target, rec.Body.String(), want)
	}
}

func mustIndex(t *testing.T, snap *cluster.View, spec string) *pathsim.Index {
	t.Helper()
	return refIndex(t, snap, spec)
}

// isolatedAuthor ingests one author with no papers and returns its id:
// the object whose top-k answer is empty.
func isolatedAuthor(t *testing.T, s *Server) int {
	t.Helper()
	body, _ := json.Marshal(ingestRequest{Deltas: []ingest.Delta{
		{Op: ingest.OpAddNode, Type: string(dblp.TypeAuthor), Name: `parity "<&>" author`},
	}})
	if code, out := do(t, s, "POST", "/v1/ingest", string(body)); code != 200 {
		t.Fatalf("ingest = %d: %s", code, out)
	}
	return s.Snapshot().Corpus.Net.Count(dblp.TypeAuthor) - 1
}

func TestRenderParityTopK(t *testing.T) {
	s := newTestServer(t, Options{Seed: 4, ControlInterval: -1})
	lone := isolatedAuthor(t, s)
	snap := s.Snapshot()
	net := snap.Corpus.Net
	authors := net.Count(dblp.TypeAuthor)

	seen := map[string]bool{} // target → already answered once (the repeat is a cache hit)
	check := func(target, spec string, x, k int) {
		t.Helper()
		ix := mustIndex(t, snap, spec)
		source := "batch"
		if seen[target] {
			source = "cache"
		}
		seen[target] = true
		rec := serveBody(t, s, "GET", target, "")
		expect(t, rec, target, 200, refTopK(snap, ix.Path[0], ix.Path.String(), x, k, source, ix.TopK(x, k)))
	}
	for _, k := range []int{1, 10, 100, 100000} { // the last two exceed the row population
		check(fmt.Sprintf("/v1/pathsim/topk?id=7&k=%d", k), "", 7, k)
	}
	check("/v1/pathsim/topk?id=7&k=10", "", 7, 10) // cache hit
	check(fmt.Sprintf("/v1/pathsim/topk?id=%d&k=10", lone), "", lone, 10)
	if body := serveBody(t, s, "GET", fmt.Sprintf("/v1/pathsim/topk?id=%d&k=10", lone), "").Body.String(); !strings.Contains(body, `"results": [],`) {
		t.Fatalf("isolated object does not render an empty list:\n%s", body)
	}
	check("/v1/pathsim/topk?name="+url.QueryEscape(net.Name(dblp.TypeAuthor, 5))+"&k=5", "", 5, 5)
	check("/v1/pathsim/topk?author="+url.QueryEscape(net.Name(dblp.TypeAuthor, lone))+"&k=5", "", lone, 5)
	check("/v1/pathsim/topk?path=A-P-A&id=3&k=10", "A-P-A", 3, 10)
	check("/v1/pathsim/topk?path=V-P-A-P-V&id=0&k=3", "V-P-A-P-V", 0, 3)
	check("/v1/pathsim/topk?id=2&k=5&debug=1", "", 2, 5)
	check("/v1/pathsim/topk?id=2&k=5&debug=1", "", 2, 5) // the hit's trace has no batch span

	// Client errors, in the order the handler checks them.
	for target, ref := range map[string]any{
		"/v1/pathsim/topk?id=1&k=0":           refError("k must be a positive integer"),
		"/v1/pathsim/topk?id=1&k=x":           refError("k must be a positive integer"),
		"/v1/pathsim/topk?id=0&path=A-P-X":    refError("invalid path: %v", pathErr(t, snap, "A-P-X")),
		"/v1/pathsim/topk?id=0&path=A-P-V":    refError("invalid path: %v", pathErr(t, snap, "A-P-V")),
		"/v1/pathsim/topk?id=0&path=A-V-A":    refError("invalid path: %v", pathErr(t, snap, "A-V-A")),
		"/v1/pathsim/topk?id=zero":            refError(`parameter "id": strconv.Atoi: parsing "zero": invalid syntax`),
		"/v1/pathsim/topk":                    refError("need id in [0,%d) or name=<author name>", authors),
		"/v1/pathsim/topk?id=100000":          refError("need id in [0,%d) or name=<author name>", authors),
		"/v1/pathsim/topk?path=V-P-V&id=1000": refError("need id in [0,%d) or name=<venue name>", net.Count(dblp.TypeVenue)),
	} {
		expect(t, serveBody(t, s, "GET", target, ""), target, 400, ref)
	}
	target := "/v1/pathsim/topk?name=" + url.QueryEscape("no\tbody <&>  ")
	expect(t, serveBody(t, s, "GET", target, ""), target, 404, refError("unknown %s %q", dblp.TypeAuthor, "no\tbody <&>  "))
}

// TestRenderParityTies: ties sit side by side in a ranked list, and the
// writer copies a repeated score's bytes instead of formatting it again.
// On the default corpus this key's top 100 is mostly ties; the share is
// asserted so the case keeps exercising the repeats if the corpus moves.
func TestRenderParityTies(t *testing.T) {
	s := newTestServer(t, Options{Seed: 4, ControlInterval: -1, Models: ModelConfig{Corpus: dblp.Config{AuthorsPerArea: 200, Papers: 2000}}})
	snap := s.Snapshot()
	ix := mustIndex(t, snap, "")
	const x, k = 654, 100
	pairs := ix.TopK(x, k)
	ties := 0
	for i := 1; i < len(pairs); i++ {
		if math.Float64bits(pairs[i].Score) == math.Float64bits(pairs[i-1].Score) {
			ties++
		}
	}
	if len(pairs) != k || 2*ties < k {
		t.Fatalf("id %d: %d rows, %d the same score as the row before; want %d rows, at least half repeats", x, len(pairs), ties, k)
	}
	target := fmt.Sprintf("/v1/pathsim/topk?id=%d&k=%d", x, k)
	expect(t, serveBody(t, s, "GET", target, ""), target, 200, refTopK(snap, ix.Path[0], ix.Path.String(), x, k, "batch", pairs))
	expect(t, serveBody(t, s, "GET", target, ""), target, 200, refTopK(snap, ix.Path[0], ix.Path.String(), x, k, "cache", pairs))
}

// pathErr is the error the snapshot's resolver reports for a bad spec.
func pathErr(t *testing.T, snap *cluster.View, spec string) error {
	t.Helper()
	_, err := resolveRef(snap, spec)
	if err == nil {
		t.Fatalf("path %q resolved", spec)
	}
	return err
}

func TestRenderParityDegradedAndShed(t *testing.T) {
	s := newTestServer(t, Options{Seed: 4, MaxConcurrent: 2, ControlInterval: -1})
	snap := s.Snapshot()
	ix := mustIndex(t, snap, "")
	if code := get(t, s, "GET", "/v1/pathsim/topk?id=0&k=5", nil); code != 200 { // prime the cache
		t.Fatalf("prime = %d", code)
	}
	s.adm.degraded.Store(true)

	// A cached answer serves, truncated to brownoutK and annotated.
	target := "/v1/pathsim/topk?id=0&k=50"
	ref := refTopK(snap, ix.Path[0], ix.Path.String(), 0, 5, "cache", ix.TopK(0, 5))
	ref["degraded"] = true
	expect(t, serveBody(t, s, "GET", target, ""), target, 200, ref)

	// A miss, an unbuilt path and a write all shed with the overload body.
	for _, tc := range []struct{ method, target, class string }{
		{"GET", "/v1/pathsim/topk?id=1&k=5", classQuery},
		{"GET", "/v1/pathsim/topk?id=0&k=5&path=A-P-A", classQuery},
		{"POST", "/v1/rebuild", classWrite},
	} {
		rec := serveBody(t, s, tc.method, tc.target, "")
		expect(t, rec, tc.target, 503, refShed(s, tc.class))
		if got := rec.Header().Get("Retry-After"); got != "1" {
			t.Errorf("%s: Retry-After = %q, want 1 (degraded backoff)", tc.target, got)
		}
	}
	s.adm.degraded.Store(false)

	// Slots exhausted, no queueing: the query sheds at admission.
	s.opts.AdmissionWait = -1
	s.adm.sem <- struct{}{}
	s.adm.sem <- struct{}{}
	rec := serveBody(t, s, "GET", "/v1/pathsim/topk?id=1&k=5", "")
	expect(t, rec, "admission shed", 503, refShed(s, classQuery))
	if got, want := rec.Header().Get("Retry-After"), strconv.Itoa((s.adm.retryAfterMS()+999)/1000); got != want {
		t.Errorf("Retry-After = %q, want %q", got, want)
	}
	// Queueing allowed, but the request's own deadline expires first.
	s.opts.AdmissionWait = time.Second
	target = "/v1/pathsim/topk?id=1&k=5&timeout_ms=5"
	expect(t, serveBody(t, s, "GET", target, ""), target, 504, refError("deadline exceeded while queued for admission"))
	<-s.adm.sem
	<-s.adm.sem
}

func TestRenderParityDeadlineAndFaults(t *testing.T) {
	slow := newTestServer(t, Options{ControlInterval: -1, Chaos: slowChaos(80 * time.Millisecond)})
	target := "/v1/pathsim/topk?id=0&k=5&timeout_ms=15"
	expect(t, serveBody(t, slow, "GET", target, ""), target, 504, refError("deadline exceeded: %v", context.DeadlineExceeded))

	faulty := newTestServer(t, Options{ControlInterval: -1, Chaos: chaos.New(chaos.Config{ErrorEvery: 1, ErrorBurst: 1})})
	expect(t, serveBody(t, faulty, "GET", "/v1/pathsim/topk?id=0", ""), "injected fault", 500, refError("chaos: injected fault"))
}

func TestRenderParityRankClustersStats(t *testing.T) {
	s := newTestServer(t, Options{Seed: 4, ControlInterval: -1})
	snap := s.Snapshot()
	for _, metric := range []string{"pagerank", "authority", "hub"} {
		for _, top := range []int{0, 12, 100000} {
			target := fmt.Sprintf("/v1/rank?metric=%s&top=%d", metric, top)
			expect(t, serveBody(t, s, "GET", target, ""), target, 200, refRank(snap, metric, top))
		}
	}
	expect(t, serveBody(t, s, "GET", "/v1/rank", ""), "/v1/rank", 200, refRank(snap, "pagerank", 10))
	expect(t, serveBody(t, s, "GET", "/v1/rank?top=3&debug=1", ""), "/v1/rank?top=3&debug=1", 200, refRank(snap, "pagerank", 3))
	for _, algo := range []string{"rankclus", "netclus"} {
		for _, top := range []int{0, 4} {
			target := fmt.Sprintf("/v1/clusters?algo=%s&top=%d", algo, top)
			expect(t, serveBody(t, s, "GET", target, ""), target, 200, refClusters(snap, algo, top))
		}
		target := "/v1/clusters?algo=" + algo + "&debug=1"
		expect(t, serveBody(t, s, "GET", target, ""), target, 200, refClusters(snap, algo, 5))
	}
	expect(t, serveBody(t, s, "GET", "/v1/clusters", ""), "/v1/clusters", 200, refClusters(snap, "rankclus", 5))
	for target, ref := range map[string]any{
		"/v1/rank?top=-1":        refError("top must be a non-negative integer"),
		"/v1/rank?top=many":      refError("top must be a non-negative integer"),
		"/v1/rank?metric=<b>":    refError("unknown metric %q (want pagerank|authority|hub)", "<b>"),
		"/v1/clusters?top=-1":    refError("top must be a non-negative integer"),
		"/v1/clusters?algo=scan": refError("unknown algo %q (want rankclus|netclus)", "scan"),
	} {
		expect(t, serveBody(t, s, "GET", target, ""), target, 400, ref)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/cluster/shards", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("/v1/cluster/shards = %d, want the mux's 404", rec.Code)
	}

	// The stats and slowlog references are taken just before the request:
	// a request's own counters and trace land only after it is answered.
	for _, target := range []string{"/v1/stats", "/v1/stats?debug=1"} {
		ref := refStats(s, snap)
		expect(t, serveBody(t, s, "GET", target, ""), target, 200, ref)
	}
	ref := refSlowlog(s)
	expect(t, serveBody(t, s, "GET", "/v1/debug/slowlog", ""), "/v1/debug/slowlog", 200, ref)
}

func TestRenderParityWrites(t *testing.T) {
	s := newTestServer(t, Options{Seed: 4, ControlInterval: -1})
	for _, target := range []string{"/v1/rebuild?seed=9", "/v1/rebuild?debug=1"} {
		rec := serveBody(t, s, "POST", target, "")
		snap := s.Snapshot()
		expect(t, rec, target, 200, map[string]any{
			"epoch": snap.Epoch, "seed": snap.Seed, "build_seconds": snap.BuildTime.Seconds(),
		})
	}
	batch, _ := json.Marshal(ingestRequest{Deltas: []ingest.Delta{
		{Op: ingest.OpAddNode, Type: string(dblp.TypeAuthor), Name: "writer-a"},
		{Op: ingest.OpAddNode, Type: string(dblp.TypePaper), Name: "writer-p"},
		{Op: ingest.OpAddEdge, SrcType: string(dblp.TypePaper), Src: "writer-p", DstType: string(dblp.TypeAuthor), Dst: "writer-a"},
	}})
	for _, target := range []string{"/v1/ingest", "/v1/ingest?debug=1"} {
		rec := serveBody(t, s, "POST", target, string(batch))
		snap := s.Snapshot()
		want := ingest.Summary{EdgesAdded: 1, Relations: 1}
		if target == "/v1/ingest" {
			want.NodesAdded = 2 // the repeat finds both objects in place
		}
		expect(t, rec, target, 200, map[string]any{
			"epoch": snap.Epoch, "applied": want, "build_seconds": snap.BuildTime.Seconds(),
		})
	}

	expect(t, serveBody(t, s, "GET", "/v1/rebuild", ""), "GET /v1/rebuild", 405, refError("rebuild requires POST"))
	expect(t, serveBody(t, s, "GET", "/v1/ingest", ""), "GET /v1/ingest", 405, refError("ingest requires POST"))
	expect(t, serveBody(t, s, "POST", "/v1/rebuild?seed=nine", ""), "/v1/rebuild?seed=nine", 400,
		refError(`parameter "seed": strconv.Atoi: parsing "nine": invalid syntax`))
	expect(t, serveBody(t, s, "POST", "/v1/ingest", `{"deltas": []}`), "empty batch", 400, refError("ingest body carries no deltas"))
	expect(t, serveBody(t, s, "POST", "/v1/ingest", `{"deltas": [`), "truncated body", 400,
		refError("invalid ingest body: %v", decodeErr(`{"deltas": [`)))
	bad, _ := json.Marshal(ingestRequest{Deltas: []ingest.Delta{{Op: ingest.OpAddNode, Type: "<galaxy>", Name: "x"}}})
	_, _, verr := s.coord.Ingest([]ingest.Delta{{Op: ingest.OpAddNode, Type: "<galaxy>", Name: "x"}}, false)
	if verr == nil {
		t.Fatal("unknown type ingested")
	}
	expect(t, serveBody(t, s, "POST", "/v1/ingest", string(bad)), "unknown type", 400, refError("%v", verr))
}

// decodeErr is the error the ingest decoder reports for a body.
func decodeErr(body string) error {
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	var req ingestRequest
	return dec.Decode(&req)
}

// TestRenderParitySharded: a 3-shard server renders the same bytes —
// checked against references built from a same-seed unsharded snapshot
// (the sharded snapshot keeps no index of its own) — and its own
// /v1/stats.
func TestRenderParitySharded(t *testing.T) {
	single := newTestServer(t, Options{Seed: 4, ControlInterval: -1})
	s := newTestServer(t, Options{Seed: 4, Shards: 3, ControlInterval: -1})
	ref, snap := single.Snapshot(), s.Snapshot()
	for _, tc := range []struct {
		spec string
		x, k int
	}{{"", 7, 1}, {"", 7, 10}, {"", 7, 100}, {"A-P-A", 3, 10}} {
		ix := mustIndex(t, ref, tc.spec)
		target := fmt.Sprintf("/v1/pathsim/topk?id=%d&k=%d&path=%s", tc.x, tc.k, tc.spec)
		expect(t, serveBody(t, s, "GET", target, ""), target, 200,
			refTopK(ref, ix.Path[0], ix.Path.String(), tc.x, tc.k, "batch", ix.TopK(tc.x, tc.k)))
	}
	target := "/v1/pathsim/topk?id=0&path=A-V-A"
	expect(t, serveBody(t, s, "GET", target, ""), target, 400, refError("invalid path: %v", pathErr(t, ref, "A-V-A")))
	for _, metric := range []string{"pagerank", "authority", "hub"} {
		target := "/v1/rank?top=12&metric=" + metric
		expect(t, serveBody(t, s, "GET", target, ""), target, 200, refRank(ref, metric, 12))
	}
	for _, algo := range []string{"rankclus", "netclus"} {
		target := "/v1/clusters?top=4&algo=" + algo
		expect(t, serveBody(t, s, "GET", target, ""), target, 200, refClusters(ref, algo, 4))
	}
	for _, target := range []string{"/v1/stats", "/v1/stats?debug=1"} {
		want := refStats(s, snap)
		expect(t, serveBody(t, s, "GET", target, ""), target, 200, want)
	}
}

// TestUnencodableScoreIs500: a non-finite score has no JSON form. The
// old path had already sent the 200 header when the encoder failed, so
// the client got a 200 with an empty body; rendering before the header
// makes it a 500 that says why.
func TestUnencodableScoreIs500(t *testing.T) {
	s := newTestServer(t, Options{Seed: 4, ControlInterval: -1})
	for x, score := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s.cache.Put(cacheKey{s.Snapshot().Epoch, pathAPVPA.String(), x, 3}, []pathsim.Pair{{ID: 1, Score: 0.5}, {ID: 2, Score: score}})
		target := fmt.Sprintf("/v1/pathsim/topk?id=%d&k=3", x)
		want := refError("encoding response: unsupported number %s", strconv.FormatFloat(score, 'g', -1, 64))
		expect(t, serveBody(t, s, "GET", target, ""), target, http.StatusInternalServerError, want)
	}
	if got := s.obs.Family("/v1/pathsim/topk").Errors(); got != 3 {
		t.Errorf("endpoint error counter = %d, want 3", got)
	}
}

// TestRenderConcurrent: pooled buffers are handed from request to
// request, so bodies rendered side by side must come out exactly as
// they do alone — no buffer seen by two requests, none recycled before
// its Write returned. (The clusters requests also race the first-use
// NMI memo.) Run under -race in CI.
func TestRenderConcurrent(t *testing.T) {
	s := newTestServer(t, Options{Seed: 4, ControlInterval: -1, CacheCapacity: -1})
	targets := []string{
		"/v1/pathsim/topk?id=7&k=100", "/v1/pathsim/topk?id=3&k=1", "/v1/rank?top=50",
		"/v1/clusters?algo=netclus", "/v1/clusters?algo=rankclus", "/v1/pathsim/topk?id=-1",
	}
	const workers, rounds = 8, 50
	got := make([][]string, workers)
	done := make(chan int, workers) // one send per worker
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- w }()
			for i := 0; i < rounds*len(targets); i++ {
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", targets[(i+w)%len(targets)], nil))
				got[w] = append(got[w], rec.Body.String())
			}
		}(w)
	}
	for range got {
		<-done
	}
	want := map[string]string{}
	for _, target := range targets {
		_, want[target] = do(t, s, "GET", target, "")
	}
	for w := range got {
		for i, body := range got[w] {
			if target := targets[(i+w)%len(targets)]; body != want[target] {
				t.Fatalf("worker %d request %d (%s) rendered\n%s\nalone it renders\n%s", w, i, target, body, want[target])
			}
		}
	}
}
