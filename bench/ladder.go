package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hinet/internal/cluster"
	"hinet/internal/core"
	"hinet/internal/dblp"
	"hinet/internal/ingest"
	"hinet/internal/netclus"
	"hinet/internal/pathsim"
	"hinet/internal/rank"
	"hinet/internal/serve"
	"hinet/internal/sparse"
	"hinet/internal/stats"
)

// span is one timed call into a layer, recorded by the harness around
// the call. Spans of one request share Req; Parent is the span that
// caused this one (-1 for a request's root) and encloses it in time.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Req    int32  `json:"req"`
	Parent int32  `json:"parent"`
	Key    int32  `json:"key"` // schedule index or ladder key index
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in a preallocated slice and writes them out at
// exit. A nil recorder records nothing, so untraced runs share the code.
type recorder struct {
	t0    time.Time
	n     atomic.Int32
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, capacity)}
}

// begin opens a span and returns its id, or -1 when nothing is recorded.
func (r *recorder) begin(name string, parent int32, key int, at time.Time) int32 {
	if r == nil {
		return -1
	}
	id := r.n.Add(1) - 1
	if int(id) >= len(r.spans) {
		return -1 // full: later spans go unrecorded
	}
	r.spans[id] = span{Name: name, ID: id, Req: id, Parent: parent, Key: int32(key), Start: int64(at.Sub(r.t0))}
	return id
}

func (r *recorder) end(id int32, at time.Time) {
	if id >= 0 {
		r.spans[id].End = int64(at.Sub(r.t0))
	}
}

// write resolves each child's request id and key from its parent (the
// server side only learns the parent's id) and writes one span per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	spans := r.spans[:min(int(r.n.Load()), len(r.spans))]
	for i := range spans {
		s := &spans[i]
		if s.End == 0 {
			continue // a span whose reply never came
		}
		if p := s.Parent; p >= 0 {
			s.Req, s.Key = spans[p].Req, spans[p].Key
		}
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// spanHandler records a server-side span around the handler for every
// request that carries a client span id, as that span's child.
func spanHandler(rec *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		id := rec.begin("serve.handler", int32(parent), 0, time.Now())
		h.ServeHTTP(w, r)
		rec.end(id, time.Now())
	})
}

// sink is the ladder's response writer: a recorder reused across calls,
// so the handler rungs count the server's allocations, not the harness's.
type sink struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (s *sink) Header() http.Header         { return s.hdr }
func (s *sink) WriteHeader(code int)        { s.code = code }
func (s *sink) Write(b []byte) (int, error) { return s.body.Write(b) }
func (s *sink) reset()                      { clear(s.hdr); s.code = http.StatusOK; s.body.Reset() }

// lad is the state of one ladder pass.
type lad struct {
	rec  *recorder
	span int32 // the span rung opened for the call in progress
	vals map[string]float64
	err  error

	n, reps int               // ladder keys; repetitions of a build step
	spec    cluster.ModelSpec // the medium corpus
	models  *cluster.Models
	keys    []int
	batches [][]ingest.Delta // 3-paper ingest batches for the medium corpus
}

const (
	us = 1e3 // nanoseconds per unit, for reporting a rung's p50
	ms = 1e6
)

// rung calls fn n times, each call one span called name, and returns the
// p50 in nanoseconds. After the first error every rung is skipped.
func (l *lad) rung(name string, n int, fn func(i int) error) float64 {
	return l.climb(n, step{name, fn})[name]
}

// step is one rung of a climb.
type step struct {
	name string
	fn   func(i int) error
}

// climb answers the same n keys at every rung, the rungs taking turns
// call by call, so the host's drift hits all rungs alike and adjacent
// rungs still subtract. The turn order reverses every other pass, so of
// two neighbouring rungs each follows the other equally often (a loopback
// call is slower after in-process work than after another loopback call);
// and each rung starts at its own offset into the keys, so none finds its
// key's data left in the cache by the rung before it. It returns each
// rung's p50 in ns.
func (l *lad) climb(n int, steps ...step) map[string]float64 {
	ds := make([][]int64, len(steps))
	for i := 0; i < n && l.err == nil; i++ {
		for turn := range steps {
			j := turn
			if i%2 == 1 {
				j = len(steps) - 1 - turn
			}
			st, key := steps[j], (i+j*n/len(steps))%n
			t0 := time.Now()
			l.span = l.rec.begin(st.name, -1, key, t0)
			err := st.fn(key)
			t1 := time.Now()
			l.rec.end(l.span, t1)
			ds[j] = append(ds[j], int64(t1.Sub(t0)))
			if err != nil {
				l.err = fmt.Errorf("%s: %w", st.name, err)
				break
			}
		}
	}
	p50 := make(map[string]float64, len(steps))
	for j, st := range steps {
		slices.Sort(ds[j])
		p50[st.name] = float64(percentile(ds[j], 0.5))
	}
	return p50
}

// build times one build step, a rung of reps calls reported in ms.
func (l *lad) build(name string, reps int, fn func(i int) error) {
	l.vals[name] = l.rung(name, reps, fn) / ms
}

// serveInto drives a handler directly, as net/http would, into the sink.
func serveInto(h http.Handler, sk *sink, req *http.Request) error {
	sk.reset()
	h.ServeHTTP(sk, req)
	if sk.code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", req.URL, sk.code, sk.body.String())
	}
	return nil
}

func getRequests(paths ...string) []*http.Request {
	reqs := make([]*http.Request, len(paths))
	for i, p := range paths {
		reqs[i] = httptest.NewRequest(http.MethodGet, p, nil)
	}
	return reqs
}

// ladder is the traced pass's workload-independent half. (a) The same
// seeded keys are answered at each rung of the topk_cold configuration —
// kernel, batcher, handler, loopback — and of the sharded tier, so
// adjacent rungs subtract to one layer's self time. (b) Each exported
// builder is timed on its own. Every call is a span in rec.
func ladder(cfg config, rec *recorder) (map[string]float64, error) {
	cold, hot := workloads()[1], workloads()[0]
	l := &lad{rec: rec, vals: map[string]float64{}, n: 5000, reps: 5,
		spec: cluster.ModelSpec{Corpus: cold.corpus(cfg.smoke)}}
	if cfg.smoke {
		l.n, l.reps = 64, 1
	}
	l.build("cluster.build_models_ms", l.reps, func(int) error { l.models = cluster.BuildModels(1, l.spec); return nil })
	bodies, err := ingestBodies(cfg.seed, l.models.Corpus, 2*l.reps)
	if err != nil {
		return nil, err
	}
	for _, b := range bodies {
		batch, err := decodeBatch(b)
		if err != nil {
			return nil, err
		}
		l.batches = append(l.batches, batch)
	}
	rng := stats.NewRNG(cfg.seed)
	for i := 0; i < l.n; i++ {
		l.keys = append(l.keys, rng.Intn(l.models.PathSim.Dim()))
	}
	for _, part := range []func() error{
		l.builders,
		func() error { return l.serving(cold.options(cfg.smoke)) },
		l.sharded,
		func() error { return l.endpoints(hot.options(cfg.smoke), cfg.seed) },
	} {
		if err := part(); err != nil {
			return nil, err
		}
	}
	return l.vals, l.err
}

// builders times each exported build step on the medium corpus.
func (l *lad) builders() error {
	v, reps, ctx := l.vals, l.reps, context.Background()
	c := l.models.Corpus
	net := c.Net
	l.build("dblp.generate_ms", reps, func(int) error { dblp.Generate(stats.NewRNG(1), l.spec.Corpus); return nil })
	coauthor := net.CommutingMatrix(cluster.PathAPA)
	l.build("rank.pagerank_ms", reps, func(int) error { rank.PageRank(coauthor, rank.Options{}); return nil })
	l.build("rank.pagerank_warm_ms", reps, func(int) error {
		rank.PageRank(coauthor, rank.Options{Start: l.models.PageRank.Scores})
		return nil
	})
	l.build("rank.hits_ms", reps, func(int) error { rank.HITS(coauthor, rank.Options{}); return nil })
	l.build("core.rankclus_ms", reps, func(int) error {
		core.Run(stats.NewRNG(2), c.VenueAuthorBipartite(), core.Options{K: c.Areas(), Method: core.AuthorityRanking, Restarts: 1})
		return nil
	})
	l.build("netclus.run_ms", reps, func(int) error {
		netclus.Run(stats.NewRNG(3), c.Star(), netclus.Options{K: c.Areas(), Restarts: 1})
		return nil
	})
	eng := net.PathEngine()
	apvpa, err := eng.ParsePath("A-P-V-P-A")
	if err != nil {
		return err
	}
	aptpa, err := eng.ParsePath("A-P-T-P-A")
	if err != nil {
		return err
	}
	hit0, miss0 := sparse.SpgemmPoolStats()
	l.build("pathsim.index_build_ms", reps, func(int) error {
		eng.Reset()
		_, err := pathsim.NewIndexCtx(ctx, net, cluster.PathAPVPA)
		return err
	})
	l.build("metapath.commute_cold_apvpa_ms", reps, func(int) error { eng.Reset(); _, err := eng.CommuteCtx(ctx, apvpa); return err })
	l.build("metapath.commute_cold_aptpa_ms", reps, func(int) error { eng.Reset(); _, err := eng.CommuteCtx(ctx, aptpa); return err })
	v["metapath.commute_warm_us"] = l.rung("metapath.commute_warm_us", 200*reps, func(int) error { _, err := eng.CommuteCtx(ctx, aptpa); return err }) / us
	v["metapath.plan_us"] = l.rung("metapath.plan_us", 200*reps, func(int) error { _, err := eng.Plan(aptpa); return err }) / us
	ap, pa := net.Relation(dblp.TypeAuthor, dblp.TypePaper), net.Relation(dblp.TypePaper, dblp.TypeAuthor)
	l.build("sparse.mul_ap_pa_ms", reps, func(int) error { _, err := ap.MulCtx(ctx, pa); return err })
	l.build("sparse.gram_ap_ms", reps, func(int) error { _, err := ap.GramCtx(ctx); return err })
	hit1, miss1 := sparse.SpgemmPoolStats()
	v["sparse.spgemm_pool_hit_rate"] = float64(hit1-hit0) / float64(max(hit1-hit0+miss1-miss0, 1))
	delta := make([]sparse.Coord, 12) // what a 3-paper batch adds to author x paper
	for i := range delta {
		delta[i] = sparse.Coord{Row: (i * 7919) % ap.Rows(), Col: (i * 104729) % ap.Cols(), Val: 1}
	}
	v["sparse.apply_delta_us"] = l.rung("sparse.apply_delta_us", 20*reps, func(int) error { ap.ApplyDelta(delta); return nil }) / us
	v["hin.clone_us"] = l.rung("hin.clone_us", 20*reps, func(int) error { net.Clone(); return nil }) / us
	l.build("ingest.apply_ms", reps, func(i int) error {
		_, err := ingest.Apply(net.Clone(), l.batches[i], ingest.Options{})
		return err
	})
	l.build("cluster.ingest_models_ms", reps, func(i int) error {
		_, _, err := cluster.IngestModels(l.models, l.batches[i], false, l.spec)
		return err
	})
	return l.err
}

// serving climbs the topk_cold ladder: kernel, batcher, handler, loopback.
func (l *lad) serving(opts serve.Options) error {
	v, n, keys, ctx := l.vals, l.n, l.keys, context.Background()
	ix := l.models.PathSim
	dim := ix.Dim()
	paths := func(k int) []string {
		ps := make([]string, n)
		for i, key := range keys {
			ps[i] = topkPath(key, k, "")
		}
		return ps
	}
	paths100 := paths(100)
	get10, get100 := getRequests(paths(10)...), getRequests(paths100...)
	v["pathsim.batch64_us_per_query"] = l.rung("pathsim.batch64", n/64, func(i int) error {
		_, err := ix.BatchTopKCtx(ctx, keys[i*64:(i+1)*64], 100)
		return err
	}) / us / 64
	// Three shards' partial answers per key, scanned ahead so that the
	// merge rung is the merge alone.
	partials := make([][][]pathsim.Pair, min(n, 256))
	for s := 0; s < 3; s++ {
		part, err := ix.Range(s*dim/3, (s+1)*dim/3)
		if err != nil {
			return err
		}
		for i := range partials {
			partials[i] = append(partials[i], part.TopK(keys[i], 100))
		}
	}

	// One server answers the batcher, handler and loopback rungs. It
	// listens through the harness's span wrapper; a request without the
	// span header (the plain loopback rung) passes through unrecorded.
	b, _, err := boot(opts, l.rec)
	if err != nil {
		return err
	}
	defer b.stop()
	cl := newClient(0)
	defer cl.hc.CloseIdleConnections()
	sk := &sink{hdr: http.Header{}}
	h := b.s.Handler()
	loopback := func(traced bool) func(int) error {
		return func(i int) error {
			sp := int32(-1)
			if traced {
				sp = l.span
			}
			status, err := cl.do(b.base, http.MethodGet, paths100[i], "", sp)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d", status)
			}
			return err
		}
	}
	p := l.climb(n,
		step{"pathsim.topk_k10_us", func(i int) error { ix.TopK(keys[i], 10); return nil }},
		step{"pathsim.topk_k100_us", func(i int) error { ix.TopK(keys[i], 100); return nil }},
		step{"pathsim.merge3_us", func(i int) error { pathsim.MergeTopK(partials[i%len(partials)], 100, nil); return nil }},
		step{"serve.topk_us", func(i int) error { _, _, err := b.s.TopK(ctx, keys[i], 100); return err }},
		// The two loopback rungs sit mid-list, between in-process rungs of
		// about equal length: at either end one of them would follow itself
		// where the order turns round, and a warm socket path is faster.
		step{"loadgen.loopback_topk_k100_us", loopback(false)},
		step{"bench.loopback_traced", loopback(true)},
		step{"serve.handler_topk_k10_us", func(i int) error { return serveInto(h, sk, get10[i]) }},
		step{"serve.handler_topk_k100_us", func(i int) error { return serveInto(h, sk, get100[i]) }},
	)
	for name, ns := range p {
		v[name] = ns / us
	}
	kernel, served, handler, plain := v["pathsim.topk_k100_us"], v["serve.topk_us"], v["serve.handler_topk_k100_us"], v["loadgen.loopback_topk_k100_us"]
	v["serve.batcher_self_us"] = served - kernel
	v["serve.render_self_k100_us"] = handler - served
	v["loadgen.socket_self_us"] = plain - handler
	v["bench.trace_overhead_pct"] = 100 * (v["bench.loopback_traced"] - plain) / plain
	delete(v, "bench.loopback_traced")
	// Allocation counts come from MemStats deltas, so these calls run
	// alone, with nothing else allocating between the two readings.
	for k, reqs := range map[int][]*http.Request{10: get10[:min(n, 500)], 100: get100[:min(n, 500)]} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, req := range reqs {
			if err := serveInto(h, sk, req); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&m1)
		v[fmt.Sprintf("serve.handler_allocs_per_req_k%d", k)] = float64(m1.Mallocs-m0.Mallocs) / float64(len(reqs))
		v[fmt.Sprintf("serve.handler_bytes_per_req_k%d", k)] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(reqs))
	}
	if l.err != nil {
		return l.err
	}
	return b.stop()
}

// sharded climbs the cluster tier over the same keys: 1 and 3 local
// shards, together with the kernel rung they are measured against.
func (l *lad) sharded() error {
	v, ctx := l.vals, context.Background()
	ix := l.models.PathSim
	coords := map[int]*cluster.Coordinator{}
	for _, shards := range []int{1, 3} {
		part := cluster.PartitionByNNZ(string(cluster.PathAPVPA[0]), ix.Dim(), shards, ix.M.RowNNZ)
		before := liveHeap()
		bootMS := l.rung("cluster.local_cluster_boot", min(l.reps, 2), func(int) error {
			var err error
			coords[shards], err = cluster.NewLocalCluster(shards, part, l.spec, nil, 1)
			return err
		}) / ms
		if l.err != nil {
			return l.err
		}
		if shards == 3 {
			v["cluster.local_cluster_boot_s3_ms"] = bootMS
			v["cluster.live_heap_s3_mb"] = (liveHeap() - before) / (1 << 20)
		}
	}
	coordTopK := func(shards int) func(int) error {
		return func(i int) error { _, _, err := coords[shards].TopK(ctx, "", l.keys[i], 100); return err }
	}
	p := l.climb(l.n,
		step{"pathsim.topk_k100_us", func(i int) error { ix.TopK(l.keys[i], 100); return nil }},
		step{"cluster.coord_topk_s1_us", coordTopK(1)},
		step{"cluster.coord_topk_s3_us", coordTopK(3)},
	)
	for _, shards := range []int{1, 3} {
		name := fmt.Sprintf("cluster.coord_topk_s%d_us", shards)
		v[name] = p[name] / us
		v[fmt.Sprintf("cluster.scatter_self_s%d_us", shards)] = (p[name] - p["pathsim.topk_k100_us"]) / us
	}
	l.build("cluster.coord_ingest_s3_ms", l.reps, func(i int) error {
		_, _, err := coords[3].Ingest(l.batches[l.reps+i], false)
		return err
	})
	return l.err
}

// endpoints times the default-corpus rungs: the cache-hit path with and
// without the server's own tracing, and the other endpoints mixed_rw calls.
func (l *lad) endpoints(opts serve.Options, seed int64) error {
	v, ctx := l.vals, context.Background()
	srv := serve.New(opts)
	defer srv.Shutdown(ctx)
	opts.NoTrace = true
	bare := serve.New(opts)
	defer bare.Shutdown(ctx)
	sk := &sink{hdr: http.Header{}}
	hit := getRequests(topkPath(0, 10, ""))[0]
	for _, s := range []*serve.Server{srv, bare} {
		if err := serveInto(s.Handler(), sk, hit); err != nil { // fills the entry the rung then hits
			return err
		}
	}
	p := l.climb(l.n,
		step{"serve.cache_hit_us", func(int) error { return serveInto(srv.Handler(), sk, hit) }},
		step{"serve.cache_hit_notrace", func(int) error { return serveInto(bare.Handler(), sk, hit) }},
	)
	v["serve.cache_hit_us"] = p["serve.cache_hit_us"] / us
	v["obs.trace_self_us"] = (p["serve.cache_hit_us"] - p["serve.cache_hit_notrace"]) / us
	for endpoint, path := range map[string]string{"rank": "/v1/rank?metric=pagerank&top=10", "clusters": "/v1/clusters?algo=rankclus&top=5", "stats": "/v1/stats"} {
		name, req := "serve.handler_"+endpoint+"_us", getRequests(path)[0]
		v[name] = l.rung(name, l.n/5, func(int) error { return serveInto(srv.Handler(), sk, req) }) / us
	}
	small, err := ingestBodies(seed, srv.Snapshot().Corpus, 4*l.reps)
	if err != nil {
		return err
	}
	l.build("serve.handler_ingest_ms", len(small), func(i int) error {
		return serveInto(srv.Handler(), sk, httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(small[i])))
	})
	return l.err
}
