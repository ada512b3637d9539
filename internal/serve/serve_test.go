package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hinet/internal/cluster"
	"hinet/internal/dblp"
	"hinet/internal/hin"
	"hinet/internal/pathsim"
	"hinet/internal/stats"
)

// testConfig is a small two-area corpus so snapshot builds stay fast.
func testConfig() ModelConfig {
	return ModelConfig{Corpus: dblp.Config{
		Areas:         []string{"database", "datamining"},
		VenuesPerArea: 3, AuthorsPerArea: 40, TermsPerArea: 30,
		SharedTerms: 15, Papers: 300,
	}}
}

// resolveRef builds the reference PathSim index for a client path spec
// ("" = the default path) over a snapshot's network: whole, through the
// full commuting matrix, never through the shards.
func resolveRef(snap *cluster.View, spec string) (*pathsim.Index, error) {
	path := cluster.PathAPVPA
	if spec != "" {
		var err error
		if path, err = snap.Corpus.Net.ParseMetaPath(spec); err != nil {
			return nil, err
		}
	}
	return pathsim.NewIndexCtx(context.Background(), snap.Corpus.Net, path)
}

// refIndex is resolveRef for specs that must resolve.
func refIndex(t testing.TB, snap *cluster.View, spec string) *pathsim.Index {
	t.Helper()
	ix, err := resolveRef(snap, spec)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Models.Corpus.Papers == 0 {
		opts.Models = testConfig()
	}
	s := New(opts)
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	return s
}

// get performs one request against the server's handler and decodes the
// JSON body (nil out skips decoding).
func get(t *testing.T, s *Server, method, path string, out any) int {
	t.Helper()
	req := httptest.NewRequest(method, path, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON: %v\n%s", method, path, err, rec.Body.String())
		}
	}
	return rec.Code
}

func TestHealthzAndStats(t *testing.T) {
	s := newTestServer(t, Options{Seed: 3})
	if code := get(t, s, "GET", "/healthz", nil); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	var st struct {
		Epoch   int64          `json:"epoch"`
		Seed    int64          `json:"seed"`
		Objects map[string]int `json:"objects"`
		PathSim struct {
			Dim int `json:"dim"`
			NNZ int `json:"nnz"`
		} `json:"pathsim"`
	}
	if code := get(t, s, "GET", "/v1/stats", &st); code != 200 {
		t.Fatalf("stats = %d", code)
	}
	if st.Epoch != 1 || st.Seed != 3 {
		t.Fatalf("epoch/seed = %d/%d", st.Epoch, st.Seed)
	}
	if st.Objects["author"] != 80 || st.PathSim.Dim != 80 || st.PathSim.NNZ == 0 {
		t.Fatalf("stats payload: %+v", st)
	}
}

type topKBody struct {
	Query struct {
		ID   int    `json:"id"`
		Name string `json:"name"`
	} `json:"query"`
	Path    string `json:"path"`
	Epoch   int64  `json:"epoch"`
	Source  string `json:"source"`
	Results []struct {
		ID    int     `json:"id"`
		Name  string  `json:"name"`
		Score float64 `json:"score"`
	} `json:"results"`
}

// TestTopKMatchesLibrary is the acceptance check: the served answer must
// equal a direct library call on the same seed.
func TestTopKMatchesLibrary(t *testing.T) {
	const seed = 7
	s := newTestServer(t, Options{Seed: seed})
	c := dblp.Generate(stats.NewRNG(seed), testConfig().Corpus)
	ix := pathsim.NewIndex(c.Net, cluster.PathAPVPA)

	for _, x := range []int{0, 5, 17, 63} {
		var body topKBody
		if code := get(t, s, "GET", "/v1/pathsim/topk?id="+itoa(x)+"&k=8", &body); code != 200 {
			t.Fatalf("topk id=%d: code %d", x, code)
		}
		want := ix.TopK(x, 8)
		if len(body.Results) != len(want) {
			t.Fatalf("id=%d: got %d results, want %d", x, len(body.Results), len(want))
		}
		for i, p := range want {
			got := body.Results[i]
			if got.ID != p.ID || math.Abs(got.Score-p.Score) > 1e-12 {
				t.Fatalf("id=%d rank %d: got (%d, %v), want (%d, %v)", x, i, got.ID, got.Score, p.ID, p.Score)
			}
			if got.Name != c.Net.Name(dblp.TypeAuthor, p.ID) {
				t.Fatalf("id=%d rank %d: name %q", x, i, got.Name)
			}
		}
	}
}

func TestTopKByNameAndErrors(t *testing.T) {
	s := newTestServer(t, Options{})
	name := s.Snapshot().Corpus.Net.Name(dblp.TypeAuthor, 3)
	var body topKBody
	if code := get(t, s, "GET", "/v1/pathsim/topk?author="+name+"&k=5", &body); code != 200 {
		t.Fatalf("by-name code %d", code)
	}
	if body.Query.ID != 3 || body.Query.Name != name {
		t.Fatalf("query echo: %+v", body.Query)
	}
	if code := get(t, s, "GET", "/v1/pathsim/topk?author=nobody", nil); code != 404 {
		t.Fatalf("unknown author: code %d", code)
	}
	if code := get(t, s, "GET", "/v1/pathsim/topk?id=100000", nil); code != 400 {
		t.Fatalf("out-of-range id: code %d", code)
	}
	if code := get(t, s, "GET", "/v1/pathsim/topk?id=1&k=0", nil); code != 400 {
		t.Fatalf("k=0: code %d", code)
	}
	if code := get(t, s, "GET", "/v1/pathsim/topk", nil); code != 400 {
		t.Fatalf("missing id: code %d", code)
	}
}

// TestTopKArbitraryPath serves a client-supplied meta-path and checks
// the answer against a direct library computation on the same seed.
func TestTopKArbitraryPath(t *testing.T) {
	const seed = 11
	s := newTestServer(t, Options{Seed: seed})
	c := dblp.Generate(stats.NewRNG(seed), testConfig().Corpus)
	apa := hin.MetaPath{dblp.TypeAuthor, dblp.TypePaper, dblp.TypeAuthor}
	ix := pathsim.NewIndex(c.Net, apa)

	for _, x := range []int{0, 7, 42} {
		var body topKBody
		if code := get(t, s, "GET", "/v1/pathsim/topk?path=A-P-A&id="+itoa(x)+"&k=6", &body); code != 200 {
			t.Fatalf("topk path=A-P-A id=%d: code %d", x, code)
		}
		if body.Path != apa.String() {
			t.Fatalf("path echo = %q, want %q", body.Path, apa.String())
		}
		want := ix.TopK(x, 6)
		if len(body.Results) != len(want) {
			t.Fatalf("id=%d: got %d results, want %d", x, len(body.Results), len(want))
		}
		for i, p := range want {
			got := body.Results[i]
			if got.ID != p.ID || math.Abs(got.Score-p.Score) > 1e-12 {
				t.Fatalf("id=%d rank %d: got (%d, %v), want (%d, %v)", x, i, got.ID, got.Score, p.ID, p.Score)
			}
		}
	}

	// Repeat query: the per-snapshot index is memoized and the result
	// cache keys on the path, so the second hit comes from cache.
	var a, b topKBody
	get(t, s, "GET", "/v1/pathsim/topk?path=A-P-A&id=3&k=4", &a)
	get(t, s, "GET", "/v1/pathsim/topk?path=A-P-A&id=3&k=4", &b)
	if a.Source == "cache" || b.Source != "cache" {
		t.Fatalf("sources = %q, %q", a.Source, b.Source)
	}
	// Same id under a different path must not alias in the cache.
	var other topKBody
	get(t, s, "GET", "/v1/pathsim/topk?id=3&k=4", &other)
	if other.Source == "cache" {
		t.Fatal("default-path query served from A-P-A cache entry")
	}

	// Venue-endpoint path (venues sharing authors): results carry venue
	// names, resolved within the path's endpoint type.
	var vp topKBody
	if code := get(t, s, "GET", "/v1/pathsim/topk?path=V-P-A-P-V&id=0&k=3", &vp); code != 200 {
		t.Fatalf("V-P-A-P-V: code %d", code)
	}
	if len(vp.Results) == 0 || vp.Results[0].Name == "" {
		t.Fatalf("V-P-A-P-V results: %+v", vp.Results)
	}
}

// TestTopKInvalidPaths is the no-crash regression suite: every way a
// client can hand us a bad path or id must come back 4xx, never panic.
func TestTopKInvalidPaths(t *testing.T) {
	s := newTestServer(t, Options{})
	for _, tc := range []struct {
		query string
		code  int
	}{
		{"path=A-P-X&id=0", 400},          // unknown type
		{"path=A-P-V&id=0", 400},          // asymmetric
		{"path=A&id=0", 400},              // too short
		{"path=A--A&id=0", 400},           // empty token
		{"path=A-V-A&id=0", 400},          // no author-venue relation in schema
		{"path=V-P-V&id=100000", 400},     // id beyond the venue index dim
		{"path=V-P-V&name=nobody", 404},   // unknown name at endpoint type
		{"path=A-P-A&author=nobody", 404}, // alias param, unknown name
	} {
		if code := get(t, s, "GET", "/v1/pathsim/topk?"+tc.query, nil); code != tc.code {
			t.Fatalf("%s: code %d, want %d", tc.query, code, tc.code)
		}
	}
	// The server must still answer after all that hostile input.
	if code := get(t, s, "GET", "/v1/pathsim/topk?id=0&k=3", nil); code != 200 {
		t.Fatalf("server unhealthy after invalid paths: %d", code)
	}
}

// TestPastBudgetPathBuiltOnce fills the generation's byte budget with
// the 64 nine-type paths of the test corpus — every one answers — and
// then asks again for one that did not fit: the View builds its ranges
// for that request alone. They must answer what a fresh server answers,
// and be built once per request: the request makes the meta-path engine
// lookups one factor build makes, not a second build's inside the
// kernel.
func TestPastBudgetPathBuiltOnce(t *testing.T) {
	opts := Options{CacheCapacity: -1}
	s := newTestServer(t, opts)
	types := []string{"author", "venue", "term", "year"}
	var paths []string
	for _, a := range types {
		for _, b := range types {
			for _, c := range types {
				paths = append(paths, fmt.Sprintf("%s-paper-%s-paper-%s-paper-%s-paper-%s", a, b, c, b, a))
			}
		}
	}
	target := func(path string) string { return "/v1/pathsim/topk?k=5&id=1&path=" + path }
	for _, path := range paths {
		if code := get(t, s, "GET", target(path), nil); code != 200 {
			t.Fatalf("%s: code %d", path, code)
		}
	}
	snap := s.Snapshot()
	ctx := context.Background()
	last := ""
	for _, path := range paths {
		if r, _, err := snap.Resolve(ctx, path, false); err == nil && r == nil {
			last = path
		}
	}
	if last == "" {
		t.Fatal("all 64 paths are held: the budget did not fill")
	}
	body := func(s *Server) string {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target(last), nil))
		if rec.Code != 200 {
			t.Fatalf("%s: code %d", last, rec.Code)
		}
		return rec.Body.String()
	}
	eng := snap.Corpus.Net.PathEngine()
	lookups := func() uint64 { st := eng.Stats(); return st.Hits + st.Misses }
	before := lookups()
	got := body(s)
	served := lookups() - before
	path, err := snap.Corpus.Net.ParseMetaPath(last)
	if err != nil {
		t.Fatal(err)
	}
	before = lookups()
	if _, _, err := snap.Corpus.Net.CommutingFactorCtx(ctx, path); err != nil {
		t.Fatal(err)
	}
	if one := lookups() - before; served != one {
		t.Errorf("a past-budget path= request made %d meta-path engine lookups, one factor build makes %d: its ranges are built once", served, one)
	}
	if want := body(newTestServer(t, opts)); got != want {
		t.Errorf("past-budget body differs from a fresh server's:\n got %s\nwant %s", got, want)
	}
}

// TestPathBudget: a 4 000-author server fed long and random meta-paths
// answers each with 200, or refuses it with a 400 naming the product's
// size bound; none is a 500, and the live heap stays within the boot
// heap plus the byte budget plus slack. Without a budget, the three
// fixed paths alone took the live heap from 4.8 to 701.6 MiB.
func TestPathBudget(t *testing.T) {
	base := liveHeapBytes()
	s := newTestServer(t, Options{CacheCapacity: -1, NoTrace: true,
		Models: ModelConfig{Corpus: dblp.Config{AuthorsPerArea: 1000, Papers: 10_000}}})
	boot := liveHeapBytes() - base
	paths := []string{"A-P-A-P-A-P-A", "A-P-T-P-A-P-T-P-A", "A-P-A-P-A-P-A-P-A-P-A"}
	rng := rand.New(rand.NewSource(51))
	ends := []string{"A", "V", "T", "Y"}
	for len(paths) < 13 {
		half := []string{ends[rng.Intn(4)]}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			half = append(half, "P", ends[rng.Intn(4)])
		}
		full := slices.Clone(half)
		for i := len(half) - 2; i >= 0; i-- {
			full = append(full, half[i])
		}
		paths = append(paths, strings.Join(full, "-"))
	}
	budget := int64(0)
	refused := 0
	for _, path := range paths {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/pathsim/topk?k=5&id=1&path="+path, nil))
		switch rec.Code {
		case 200:
		case 400:
			refused++
			msg := rec.Body.String()
			i := strings.Index(msg, "budget of ")
			if !strings.Contains(msg, "could take up to") || i < 0 {
				t.Fatalf("%s: a 400 that names no bound: %s", path, msg)
			}
			if _, err := fmt.Sscanf(msg[i:], "budget of %d bytes", &budget); err != nil {
				t.Fatalf("%s: %v in %s", path, err, msg)
			}
		default:
			t.Fatalf("%s: code %d: %s", path, rec.Code, rec.Body.String())
		}
	}
	if refused == 0 {
		t.Fatal("no path was refused; A-P-A-P-A-P-A-P-A-P-A's half alone is past any budget here")
	}
	if raceEnabled {
		return // race instrumentation inflates the heap
	}
	const slack = 4 << 20
	live := liveHeapBytes() - base
	t.Logf("boot %.1f MiB, after %d paths (%d refused) %.1f MiB, budget %.1f MiB",
		float64(boot)/(1<<20), len(paths), refused, float64(live)/(1<<20), float64(budget)/(1<<20))
	if live > boot+budget+slack {
		t.Errorf("live heap %.1f MiB after the paths, over boot %.1f + budget %.1f + slack %.1f MiB",
			float64(live)/(1<<20), float64(boot)/(1<<20), float64(budget)/(1<<20), float64(slack)/(1<<20))
	}
	runtime.KeepAlive(s)
}

// liveHeapBytes is HeapAlloc after two collections.
func liveHeapBytes() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestPathSpellingsAllocateAlike: the View memoizes a spelling of a path
// it was asked in beside the canonical one, so a cached answer to
// path=A-P-T-P-A costs what one to author-paper-term-paper-author costs:
// neither parses the spec again.
func TestPathSpellingsAllocateAlike(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	s := newTestServer(t, Options{Seed: 5, NoTrace: true})
	allocs := func(path string) float64 {
		target := "/v1/pathsim/topk?id=3&k=5&path=" + path
		hit := func() {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
			if rec.Code != 200 {
				t.Fatalf("%s: code %d", path, rec.Code)
			}
		}
		hit() // the build, then the answer into the result cache
		hit()
		return testing.AllocsPerRun(100, hit)
	}
	canonical := allocs("author-paper-term-paper-author")
	for _, spelling := range []string{"A-P-T-P-A", "a-p-t-p-a", "Author-Paper-Term-Paper-Author"} {
		if got := allocs(spelling); got > canonical {
			t.Errorf("a cached path=%s read allocates %.0f times, the canonical spelling %.0f: the spelling is parsed again", spelling, got, canonical)
		}
	}
}

// TestTopKOutOfRangeRegression pins the pathsim fix: an id valid for
// the default author index but out of range for a smaller per-path
// index must 400 (it used to panic in diag[x] before the Dim check and
// the TopK range guard existed).
func TestTopKOutOfRangeRegression(t *testing.T) {
	s := newTestServer(t, Options{})
	snap := s.Snapshot()
	vpv := refIndex(t, snap, "V-P-V")
	x := vpv.Dim() // valid author id (80 authors), invalid venue id (6 venues)
	if x >= snap.IndexDim {
		t.Fatalf("test premise broken: %d venues >= %d authors", x, snap.IndexDim)
	}
	if code := get(t, s, "GET", "/v1/pathsim/topk?path=V-P-V&id="+itoa(x), nil); code != 400 {
		t.Fatalf("out-of-range id for per-path index: code %d, want 400", code)
	}
	// And the library layer itself returns empty instead of panicking.
	if got := vpv.TopK(x, 5); got != nil {
		t.Fatalf("TopK out of range = %v, want nil", got)
	}
	if got, err := vpv.BatchTopKCtx(context.Background(), []int{-1, x}, 5); err != nil || len(got) != 2 || got[0] != nil || got[1] != nil {
		t.Fatalf("BatchTopKCtx out of range = %v (%v)", got, err)
	}
}

func TestRankEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	snap := s.Snapshot()
	for _, metric := range []string{"pagerank", "authority", "hub"} {
		var body struct {
			Metric string `json:"metric"`
			Top    []struct {
				ID    int     `json:"id"`
				Score float64 `json:"score"`
			} `json:"top"`
		}
		if code := get(t, s, "GET", "/v1/rank?metric="+metric+"&top=6", &body); code != 200 {
			t.Fatalf("%s: code %d", metric, code)
		}
		if body.Metric != metric || len(body.Top) != 6 {
			t.Fatalf("%s: %+v", metric, body)
		}
		for i := 1; i < len(body.Top); i++ {
			if body.Top[i].Score > body.Top[i-1].Score {
				t.Fatalf("%s: scores not descending", metric)
			}
		}
	}
	var pr struct {
		Top []struct {
			ID int `json:"id"`
		} `json:"top"`
	}
	get(t, s, "GET", "/v1/rank?top=1", &pr)
	if want := snap.PageRank.TopK(1)[0]; pr.Top[0].ID != want {
		t.Fatalf("pagerank top-1 = %d, want %d", pr.Top[0].ID, want)
	}
	if code := get(t, s, "GET", "/v1/rank?metric=bogus", nil); code != 400 {
		t.Fatal("bogus metric accepted")
	}
	if code := get(t, s, "GET", "/v1/rank?top=-1", nil); code != 400 {
		t.Fatal("negative top accepted")
	}
}

func TestClustersEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	type row struct {
		ID    int     `json:"id"`
		Name  string  `json:"name"`
		Score float64 `json:"score"`
	}
	var rc struct {
		K        int     `json:"k"`
		NMI      float64 `json:"nmi"`
		Clusters []struct {
			Venues  []row `json:"venues"`
			Authors []row `json:"authors"`
		} `json:"clusters"`
	}
	if code := get(t, s, "GET", "/v1/clusters?algo=rankclus&top=3", &rc); code != 200 {
		t.Fatalf("rankclus code %d", code)
	}
	if rc.K != 2 || len(rc.Clusters) != 2 || len(rc.Clusters[0].Venues) == 0 {
		t.Fatalf("rankclus payload: %+v", rc)
	}
	var nc map[string]any
	if code := get(t, s, "GET", "/v1/clusters?algo=netclus&top=3", &nc); code != 200 {
		t.Fatalf("netclus code %d", code)
	}
	clusters := nc["clusters"].([]any)
	entry := clusters[0].(map[string]any)
	for _, key := range []string{"authors", "venues", "terms"} {
		if _, ok := entry[key]; !ok {
			t.Fatalf("netclus cluster missing %q: %v", key, entry)
		}
	}
	if code := get(t, s, "GET", "/v1/clusters?algo=bogus", nil); code != 400 {
		t.Fatal("bogus algo accepted")
	}
	if code := get(t, s, "GET", "/v1/clusters?top=-1", nil); code != 400 {
		t.Fatal("negative top accepted")
	}
}

// TestCacheHitAndEpochInvalidation drives the cache through the full
// lifecycle: miss → hit → snapshot swap → miss under the new epoch.
func TestCacheHitAndEpochInvalidation(t *testing.T) {
	s := newTestServer(t, Options{})
	var first, second, third topKBody
	get(t, s, "GET", "/v1/pathsim/topk?id=9&k=5", &first)
	get(t, s, "GET", "/v1/pathsim/topk?id=9&k=5", &second)
	if first.Source != "batch" || second.Source != "cache" {
		t.Fatalf("sources = %q, %q; want batch, cache", first.Source, second.Source)
	}
	if first.Epoch != 1 || second.Epoch != 1 {
		t.Fatalf("epochs = %d, %d", first.Epoch, second.Epoch)
	}

	var rb struct {
		Epoch int64 `json:"epoch"`
		Seed  int64 `json:"seed"`
	}
	if code := get(t, s, "POST", "/v1/rebuild?seed=99", &rb); code != 200 {
		t.Fatalf("rebuild code %d", code)
	}
	if rb.Epoch != 2 || rb.Seed != 99 {
		t.Fatalf("rebuild = %+v", rb)
	}
	if code := get(t, s, "GET", "/v1/rebuild", nil); code != 405 {
		t.Fatal("GET rebuild accepted")
	}

	get(t, s, "GET", "/v1/pathsim/topk?id=9&k=5", &third)
	if third.Source != "batch" || third.Epoch != 2 {
		t.Fatalf("post-rebuild source=%q epoch=%d; want batch, 2", third.Source, third.Epoch)
	}
}

func TestCacheDisabledServer(t *testing.T) {
	s := newTestServer(t, Options{CacheCapacity: -1})
	var a, b topKBody
	get(t, s, "GET", "/v1/pathsim/topk?id=2&k=4", &a)
	get(t, s, "GET", "/v1/pathsim/topk?id=2&k=4", &b)
	if a.Source != "batch" || b.Source != "batch" {
		t.Fatalf("disabled cache still hit: %q, %q", a.Source, b.Source)
	}
}

func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t, Options{})
	get(t, s, "GET", "/v1/pathsim/topk?id=0&k=3", nil)
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		"hinet_snapshot_epoch 1",
		`hinet_http_requests_total{endpoint="/v1/pathsim/topk"} 1`,
		"hinet_cache_misses_total 1",
		"hinet_metapath_cache_hits_total",
		"hinet_metapath_gram_products_total",
		"hinet_pool_workers",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func itoa(x int) string {
	b, _ := json.Marshal(x)
	return string(b)
}
