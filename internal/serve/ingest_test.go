package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hinet/internal/cluster"
	"hinet/internal/dblp"
	"hinet/internal/ingest"
	"hinet/internal/pathsim"
	"hinet/internal/rank"
	"hinet/internal/stats"
)

// samePairs compares two answers element-wise (nil and empty are the
// same answer).
func samePairs(a, b []pathsim.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// postIngest ships a delta batch through the HTTP handler and decodes
// the response.
func postIngest(t *testing.T, srv *Server, deltas []ingest.Delta) (map[string]any, int) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"deltas": deltas})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	var out map[string]any
	_ = json.Unmarshal(rec.Body.Bytes(), &out)
	return out, rec.Code
}

func TestIngestEndpoint(t *testing.T) {
	srv := newTestServer(t, Options{})
	snap0 := srv.Snapshot()

	deltas := []ingest.Delta{
		{Op: ingest.OpAddNode, Type: "paper", Name: "ingested-0"},
		{Op: ingest.OpAddEdge, SrcType: "paper", Src: "ingested-0", DstType: "author", Dst: snap0.Corpus.Net.Name(dblp.TypeAuthor, 0)},
		{Op: ingest.OpAddEdge, SrcType: "paper", Src: "ingested-0", DstType: "venue", Dst: snap0.Corpus.Net.Name(dblp.TypeVenue, 0)},
	}
	out, code := postIngest(t, srv, deltas)
	if code != http.StatusOK {
		t.Fatalf("ingest returned %d: %v", code, out)
	}
	if int64(out["epoch"].(float64)) != snap0.Epoch+1 {
		t.Fatalf("epoch %v, want %d", out["epoch"], snap0.Epoch+1)
	}
	snap1 := srv.Snapshot()
	if snap1 == snap0 {
		t.Fatal("snapshot not swapped")
	}
	if snap1.Corpus.Net.Count(dblp.TypePaper) != snap0.Corpus.Net.Count(dblp.TypePaper)+1 {
		t.Fatal("paper not ingested")
	}
	// The old snapshot's network is untouched (copy-on-write).
	if snap0.Corpus.Net.Lookup(dblp.TypePaper, "ingested-0") != -1 {
		t.Fatal("old snapshot's network was mutated")
	}
	// Clustering models carried over; ranking recomputed at new size.
	if snap1.RankClus != snap0.RankClus || snap1.NetClus != snap0.NetClus {
		t.Fatal("cluster models should carry over without refresh_models")
	}
	if len(snap1.PageRank.Scores) != snap1.Corpus.Net.Count(dblp.TypeAuthor) {
		t.Fatal("PageRank not rebuilt over the new graph")
	}

	// Method and body validation.
	req := httptest.NewRequest(http.MethodGet, "/v1/ingest", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET ingest: %d", rec.Code)
	}
	if _, code := postIngest(t, srv, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", code)
	}
	if _, code := postIngest(t, srv, []ingest.Delta{
		{Op: ingest.OpAddEdge, SrcType: "paper", Src: "no-such-paper", DstType: "author", Dst: "no-such-author"},
	}); code != http.StatusBadRequest {
		t.Fatalf("invalid batch: %d", code)
	}
	// A rejected batch must not advance the epoch.
	if srv.Snapshot().Epoch != snap1.Epoch {
		t.Fatal("rejected batch advanced the epoch")
	}
}

// TestIngestRejectsTrailingData: an ingest body is one JSON object. A
// second object or garbage after it is a 400 that applies nothing and
// counts as rejected; trailing whitespace is accepted.
func TestIngestRejectsTrailingData(t *testing.T) {
	srv := newTestServer(t, Options{})
	epoch := srv.Snapshot().Epoch
	batch := func(paper string) string {
		b, err := json.Marshal(map[string]any{"deltas": []ingest.Delta{{Op: ingest.OpAddNode, Type: "paper", Name: paper}}})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	post := func(body string) int {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(body)))
		return rec.Code
	}
	for _, body := range []string{batch("zz-1") + batch("zz-2"), batch("zz-1") + " trailing-garbage", batch("zz-1") + "\n{}"} {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("body %q: %d, want 400", body, code)
		}
	}
	snap := srv.Snapshot()
	if snap.Epoch != epoch || snap.Corpus.Net.Lookup(dblp.TypePaper, "zz-1") >= 0 {
		t.Fatalf("a rejected body was applied: epoch %d (was %d)", snap.Epoch, epoch)
	}
	if got := srv.ing.rejected.Load(); got != 3 {
		t.Errorf("ingest rejected = %d, want 3", got)
	}
	if code := post(batch("zz-1") + " \n\t"); code != http.StatusOK {
		t.Fatalf("one object and whitespace: %d, want 200", code)
	}
	if srv.Snapshot().Corpus.Net.Lookup(dblp.TypePaper, "zz-1") < 0 {
		t.Fatal("the accepted batch was not applied")
	}
}

// TestIngestEquivalentToRebuild is the serving-level equivalence
// check: a generation chain that ingests delta batches ends with the
// same network matrices and (within tolerance) the same PageRank as
// one that replays everything from scratch.
func TestIngestEquivalentToRebuild(t *testing.T) {
	spec := testConfig().spec()
	a := cluster.BuildModels(1, spec)
	b := cluster.BuildModels(1, spec)

	rng := stats.NewRNG(42)
	var all []ingest.Delta
	var err error
	for batch := 0; batch < 3; batch++ {
		ds := ingest.SamplePapers(a.Corpus, rng, 4)
		if a, _, err = cluster.IngestModels(a, ds, false, spec); err != nil {
			t.Fatal(err)
		}
		all = append(all, ds...)
	}
	// Replay the same deltas in one shot on the reference chain.
	if b, _, err = cluster.IngestModels(b, all, false, spec); err != nil {
		t.Fatal(err)
	}

	if got, want := a.Corpus.Net.Count(dblp.TypePaper), b.Corpus.Net.Count(dblp.TypePaper); got != want {
		t.Fatalf("paper counts %d vs %d", got, want)
	}
	am := a.Corpus.Net.Relation(dblp.TypePaper, dblp.TypeAuthor)
	bm := b.Corpus.Net.Relation(dblp.TypePaper, dblp.TypeAuthor)
	if !reflect.DeepEqual(am.Dense(), bm.Dense()) {
		t.Fatal("paper-author relation differs between batched and replayed ingestion")
	}
	if !reflect.DeepEqual(a.PathSim.M.Dense(), b.PathSim.M.Dense()) {
		t.Fatal("PathSim commuting matrix differs")
	}
	for i := range a.PageRank.Scores {
		d := a.PageRank.Scores[i] - b.PageRank.Scores[i]
		if d < -1e-6 || d > 1e-6 {
			t.Fatalf("PageRank diverged at %d: %g vs %g", i, a.PageRank.Scores[i], b.PageRank.Scores[i])
		}
	}
	// HITS is warm-started from the previous epoch's hubs: same fixed
	// point as the other server's and as a cold run, in fewer iterations.
	cold := rank.HITS(a.Corpus.Net.CommutingMatrix(cluster.PathAPA), rank.Options{})
	for _, v := range []struct {
		name      string
		got, want []float64
	}{
		{"authority", a.HITS.Authority, b.HITS.Authority},
		{"hub", a.HITS.Hub, b.HITS.Hub},
		{"authority vs cold", a.HITS.Authority, cold.Authority},
		{"hub vs cold", a.HITS.Hub, cold.Hub},
	} {
		if len(v.got) != len(v.want) {
			t.Fatalf("HITS %s: %d vs %d scores", v.name, len(v.got), len(v.want))
		}
		for i := range v.got {
			if d := v.got[i] - v.want[i]; d < -1e-6 || d > 1e-6 {
				t.Fatalf("HITS %s diverged at %d: %g vs %g", v.name, i, v.got[i], v.want[i])
			}
		}
	}
	if !a.HITS.Converged || a.HITS.Iterations >= cold.Iterations {
		t.Fatalf("warm HITS took %d iterations (converged=%v), cold takes %d", a.HITS.Iterations, a.HITS.Converged, cold.Iterations)
	}
}

// TestIngestInvalidatesCachedAnswers checks that an ingest which
// changes a query's true answer is reflected immediately — the cache
// keys on the epoch, so no stale entry can be served.
func TestIngestInvalidatesCachedAnswers(t *testing.T) {
	srv := newTestServer(t, Options{})
	snap := srv.Snapshot()
	net := snap.Corpus.Net

	// Prime the cache for author 0's top-k.
	before, _, err := srv.TopK(context.Background(), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Forge a batch that makes author 1 an overwhelming APVPA peer of
	// author 0: many shared papers in one venue.
	var ds []ingest.Delta
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("forged-%d", i)
		ds = append(ds, ingest.Delta{Op: ingest.OpAddNode, Type: "paper", Name: name},
			ingest.Delta{Op: ingest.OpAddEdge, SrcType: "paper", Src: name, DstType: "author", Dst: net.Name(dblp.TypeAuthor, 0)},
			ingest.Delta{Op: ingest.OpAddEdge, SrcType: "paper", Src: name, DstType: "author", Dst: net.Name(dblp.TypeAuthor, 1)},
			ingest.Delta{Op: ingest.OpAddEdge, SrcType: "paper", Src: name, DstType: "venue", Dst: net.Name(dblp.TypeVenue, 0)})
	}
	if _, code := postIngest(t, srv, ds); code != http.StatusOK {
		t.Fatalf("ingest failed: %d", code)
	}
	after, hit, err := srv.TopK(context.Background(), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("post-ingest query must not hit the pre-ingest cache entry")
	}
	if reflect.DeepEqual(before, after) {
		t.Fatal("ingest did not change the served answer")
	}
	// And the fresh answer matches a direct index query on the new
	// snapshot.
	want := refIndex(t, srv.Snapshot(), "").TopK(0, 5)
	if !samePairs(after, want) {
		t.Fatalf("served %v, index says %v", after, want)
	}
}

// TestConcurrentIngestRebuildReads hammers the server with concurrent
// ingests, rebuilds and reads (run under -race in CI): snapshot epochs
// must be strictly monotonic at every observation point, responses
// must never mix epochs with answers, and the final state must serve
// the current snapshot's own results.
func TestConcurrentIngestRebuildReads(t *testing.T) {
	srv := newTestServer(t, Options{})
	defer srv.Shutdown(context.Background())
	base := srv.Snapshot()
	authors := base.Corpus.Net.Count(dblp.TypeAuthor)

	var lastSeen atomic.Int64
	lastSeen.Store(base.Epoch)
	observe := func(epoch int64) {
		for {
			prev := lastSeen.Load()
			if epoch < prev {
				// Receding epochs are only legal across different
				// observers (a reader may hold an older snapshot); the
				// high-water mark itself must never recede, which
				// CompareAndSwap enforces.
				return
			}
			if lastSeen.CompareAndSwap(prev, epoch) {
				return
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Ingest writers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := stats.NewRNG(int64(100 + g))
			for i := 0; i < 5; i++ {
				cur := srv.Snapshot()
				ds := ingest.SamplePapers(cur.Corpus, rng, 2)
				snap, _, err := srv.coord.Ingest(ds, false)
				if err != nil {
					errs <- err
					return
				}
				observe(snap.Epoch)
			}
		}(g)
	}
	// Rebuild writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			snap, err := srv.coord.Rebuild(int64(i + 2))
			if err != nil {
				errs <- err
				return
			}
			observe(snap.Epoch)
		}
	}()
	// Readers: top-k + rank + stats against whatever snapshot is live.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				snap := srv.Snapshot()
				observe(snap.Epoch)
				x := (g*13 + i) % authors
				// Read as the handlers do: through the snapshot's View,
				// however many writes overtake the read.
				err := func() error {
					def, _, _ := snap.Resolve(context.Background(), "", false)
					pairs, _, err := srv.topK(context.Background(), nil, snap, def, x, 5, false)
					if err != nil {
						return err
					}
					// The served answer must equal the snapshot's own index
					// answer — a stale cache entry from another epoch would
					// differ whenever the graph changed.
					ref, err := resolveRef(snap, "")
					if err != nil {
						return err
					}
					if want := ref.TopK(x, 5); !samePairs(pairs, want) {
						return fmt.Errorf("stale answer for x=%d at epoch %d", x, snap.Epoch)
					}
					return nil
				}()
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiesced: the live snapshot answers for itself.
	snap := srv.Snapshot()
	def, _, _ := snap.Resolve(context.Background(), "", false)
	pairs, _, err := srv.topK(context.Background(), nil, snap, def, 0, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := refIndex(t, snap, "").TopK(0, 5); !samePairs(pairs, want) {
		t.Fatal("final answer does not match the live snapshot")
	}
}

// TestUnrefreshedBaseIsDropped pins the one-generation retention rule
// of stale patch bases: a product queried in one generation is patched,
// not rebuilt, in the next; a product nobody asks for during a whole
// generation is gone from the engine — and from the heap — after the
// ingest that follows.
func TestUnrefreshedBaseIsDropped(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates the heap")
	}
	const spec = "A-P-T-P-A"
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// routes reports how many products a query of spec patched and how
	// many Gram products it ran in all, on the live generation's engine.
	routes := func(m *cluster.Models) (patched, grams uint64, ix *pathsim.Index) {
		e := m.Corpus.Net.PathEngine()
		before := e.Stats()
		ix = refIndex(t, &cluster.View{Models: m}, spec)
		after := e.Stats()
		return after.Patches - before.Patches, after.Grams - before.Grams, ix
	}
	// Three ingests; with query set, spec is materialized before the
	// first and again right after it, then never.
	var indexBytes int64
	build := func(query bool) *cluster.Models {
		mspec := ModelConfig{Corpus: dblp.Config{AuthorsPerArea: 200, Papers: 2000}}.spec()
		st := cluster.BuildModels(1, mspec)
		rng := stats.NewRNG(9)
		for i := 0; i < 3; i++ {
			if query && i == 0 {
				routes(st)
			}
			var err error
			if st, _, err = cluster.IngestModels(st, ingest.SamplePapers(st.Corpus, rng, 3), false, mspec); err != nil {
				t.Fatal(err)
			}
			if query && i == 0 {
				patched, _, ix := routes(st)
				if patched < 2 { // the A-P-T product and its Gram
					t.Fatalf("one ingest after a query, %s ran %d patches: its base was not kept", spec, patched)
				}
				indexBytes = int64(ix.NNZ()) * 12
			}
		}
		return st
	}
	base := liveHeap()
	plain := build(false)
	plainHeap := liveHeap() - base
	base = liveHeap()
	queried := build(true)
	queriedHeap := liveHeap() - base
	t.Logf("live heap after 3 ingests: %.1f MiB never queried, %.1f MiB queried two generations ago (index %.1f MiB)",
		float64(plainHeap)/(1<<20), float64(queriedHeap)/(1<<20), float64(indexBytes)/(1<<20))
	if queriedHeap-plainHeap > indexBytes/4 {
		t.Fatalf("a product last queried two generations ago still holds %d bytes (its index is %d)", queriedHeap-plainHeap, indexBytes)
	}
	if patched, grams, _ := routes(queried); patched != 0 || grams == 0 {
		t.Fatalf("two generations on, %s ran %d patches over %d Gram products: the base should be gone and the build cold", spec, patched, grams)
	}
	runtime.KeepAlive(plain)
}

// TestIngestReportsPatchRoute: after an ingest /metrics says the write
// patched its products (a server that silently fell back to cold
// rebuilds reads 0 here), sharded or not, and /v1/stats keeps the
// metapath key set its consumers digest.
func TestIngestReportsPatchRoute(t *testing.T) {
	for _, shards := range []int{0, 3} {
		srv := newTestServer(t, Options{Shards: shards})
		batch := ingest.SamplePapers(srv.Snapshot().Corpus, stats.NewRNG(5), 2)
		if out, code := postIngest(t, srv, batch); code != http.StatusOK {
			t.Fatalf("shards=%d: ingest returned %d: %v", shards, code, out)
		}
		_, metrics := do(t, srv, "GET", "/metrics", "")
		for _, series := range []string{"hinet_metapath_patches_total", "hinet_metapath_patched_rows_total", "hinet_metapath_patch_seconds_total"} {
			var v float64
			i := strings.Index(metrics, series+" ")
			if i < 0 {
				t.Fatalf("shards=%d: /metrics lacks %s", shards, series)
			}
			if _, err := fmt.Sscan(metrics[i+len(series):], &v); err != nil || v <= 0 {
				t.Fatalf("shards=%d: %s = %v (%v), want > 0 after an ingest", shards, series, v, err)
			}
		}
		var st struct {
			Metapath map[string]any `json:"metapath"`
		}
		if code := get(t, srv, "GET", "/v1/stats", &st); code != http.StatusOK {
			t.Fatalf("stats = %d", code)
		}
		keys := make([]string, 0, len(st.Metapath))
		for k := range st.Metapath {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		want := []string{"cache_entries", "cache_hits", "cache_misses", "gram_products", "gram_seconds", "product_seconds", "products", "transposes"}
		if !slices.Equal(keys, want) {
			t.Fatalf("shards=%d: /v1/stats metapath keys = %v, want %v", shards, keys, want)
		}
	}
}

// TestReadsSurviveBackToBackWrites: a read is never answered 503 because
// writes kept overtaking it. One goroutine posts ingests back to back,
// one reads top-k — the prebuilt path, and one every write forces the
// shards to re-materialize, whose reads take long enough for two writes
// to land inside one — and every response on both sides is a 200: a
// read holds its snapshot's View, so no write can take its generation
// away, and the writer finishes its fixed count of writes.
func TestReadsSurviveBackToBackWrites(t *testing.T) {
	const writes = 40
	for _, shards := range []int{1, 3} {
		for _, path := range []string{"", "A-P-T-P-A"} {
			t.Run(fmt.Sprintf("shards=%d/path=%q", shards, path), func(t *testing.T) {
				// The admission controller is off: a brownout would shed
				// requests on its own account.
				srv := newTestServer(t, Options{Shards: shards, CacheCapacity: -1, ControlInterval: -1})
				h := srv.Handler()
				authors := srv.Snapshot().Corpus.Net.Count(dblp.TypeAuthor)
				done := make(chan struct{})
				var badWrite atomic.Value
				go func() {
					defer close(done)
					rng := stats.NewRNG(9)
					for i := 0; i < writes; i++ {
						body, err := json.Marshal(map[string]any{"deltas": ingest.SamplePapers(srv.Snapshot().Corpus, rng, 3)})
						if err != nil {
							badWrite.Store(err.Error())
							return
						}
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
						if rec.Code != http.StatusOK {
							badWrite.Store(fmt.Sprintf("ingest %d: status %d: %s", i, rec.Code, rec.Body.String()))
							return
						}
					}
				}()
				watchdog := time.After(2 * time.Minute)
				reads := 0
				for writing := true; writing; reads++ {
					select {
					case <-done:
						writing = false
					case <-watchdog:
						t.Fatalf("writer still running after 2 minutes and %d reads", reads)
					default:
					}
					target := fmt.Sprintf("/v1/pathsim/topk?id=%d&k=10", reads%authors)
					if path != "" {
						target += "&path=" + path
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
					if rec.Code != http.StatusOK {
						t.Fatalf("read %d (%s): status %d: %s", reads, target, rec.Code, rec.Body.String())
					}
				}
				if msg := badWrite.Load(); msg != nil {
					t.Fatal(msg)
				}
				if got := srv.Snapshot().Epoch; got != 1+writes {
					t.Fatalf("epoch %d after %d writes", got, writes)
				}
			})
		}
	}
}

// TestReadHoldsItsGeneration: a reader that loaded a snapshot reads its
// generation to the end, whatever lands meanwhile — two ingests here —
// and answers as a cold build at the reader's epoch
// does, over the prebuilt path and over one the reader materializes
// after the cluster has moved on.
func TestReadHoldsItsGeneration(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv := newTestServer(t, Options{Seed: 2, Shards: shards, CacheCapacity: -1, ControlInterval: -1})
			spec, rng := srv.opts.Models.spec(), stats.NewRNG(4)
			batch := ingest.SamplePapers(srv.Snapshot().Corpus, rng, 3)
			if _, _, err := srv.coord.Ingest(batch, false); err != nil {
				t.Fatal(err)
			}
			ref, _, err := cluster.IngestModels(cluster.BuildModels(srv.opts.Seed, spec), batch, false, spec)
			if err != nil {
				t.Fatal(err)
			}
			snap := srv.Snapshot() // the reader's
			for i := 0; i < 2; i++ {
				if _, _, err := srv.coord.Ingest(ingest.SamplePapers(srv.Snapshot().Corpus, rng, 3), false); err != nil {
					t.Fatal(err)
				}
			}
			ctx := context.Background()
			for _, name := range []string{"", "A-P-T-P-A"} {
				path := cluster.PathAPVPA
				if name != "" {
					if path, err = ref.Corpus.Net.ParseMetaPath(name); err != nil {
						t.Fatal(err)
					}
				}
				p, _, err := snap.Resolve(ctx, name, true)
				if err != nil {
					t.Fatalf("path %s: resolve at epoch %d: %v", path, snap.Epoch, err)
				}
				want, err := pathsim.NewIndexE(ref.Corpus.Net, path)
				if err != nil {
					t.Fatal(err)
				}
				for _, x := range []int{0, 5, want.Dim() / 2, want.Dim() - 1} {
					got, _, err := srv.topK(ctx, nil, snap, p, x, 20, false)
					if err != nil || !samePairs(got, want.TopK(x, 20)) {
						t.Fatalf("path %s, id %d: %v (%v), cold build at epoch %d: %v",
							path, x, got, err, snap.Epoch, want.TopK(x, 20))
					}
				}
			}
		})
	}
}
