// Package serve is the online query-serving subsystem: it turns the
// library's batch kernels into a long-running HTTP JSON service, the
// paper's "mine knowledge interactively" reading of ranking, clustering
// and similarity search (§2, §4, §7b as query-time primitives).
//
// Four pieces cooperate:
//
//   - internal/cluster is the one kernel and write surface: its
//     coordinator builds each immutable generation once — PageRank/HITS
//     vectors, RankClus and NetClus cluster models, the default PathSim
//     index — and publishes it as a View, which answers top-k reads.
//     Each generation carries its network's meta-path engine
//     (internal/metapath), so /v1/pathsim/topk serves arbitrary path=
//     meta-paths, planned and materialized on first use and answered
//     from the View's memo afterwards;
//   - the cluster's View is the serving snapshot: the coordinator
//     publishes each generation atomically, and a request loads the
//     published View once and reads it throughout — /v1/rank and
//     /v1/clusters are answered from it, as is every name a response
//     renders — so writes never block queries;
//   - a sharded LRU Cache (cache.go) answers hot queries from memory,
//     keyed by (snapshot epoch, path, query) so a swap invalidates
//     implicitly;
//   - a top-k miss is one View.TopK call on the goroutine that asked
//     (Server.topK), with no queue, dispatcher or batch in between.
//
// Every request is counted and traced (internal/obs): New states each
// endpoint once, in one table, and builds one obs family per endpoint
// from it. The route wrapper counts every request in its family and
// mints one span trace per request, handlers chain named stage spans
// through it, and Finish feeds the family's stage histograms (/metrics,
// /v1/stats) plus the slow-query log (/v1/debug/slowlog). Appending
// debug=1 to any query echoes the request's own span tree in the
// response.
//
// Endpoints: /healthz, /metrics, /v1/stats, /v1/rank, /v1/clusters,
// /v1/pathsim/topk, POST /v1/rebuild, POST /v1/ingest, and
// /v1/debug/slowlog (plus /debug/pprof/* when Options.Pprof is set).
// See docs/ARCHITECTURE.md ("One serving path") and the README quickstart.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hinet/internal/chaos"
	"hinet/internal/cluster"
	"hinet/internal/dblp"
	"hinet/internal/hin"
	"hinet/internal/ingest"
	"hinet/internal/obs"
	"hinet/internal/pathsim"
	"hinet/internal/sparse"
	"hinet/internal/stats"
)

// Options configures a Server.
type Options struct {
	Addr   string      // listen address (default ":8080")
	Seed   int64       // seed of the startup snapshot (default 1)
	Models ModelConfig // snapshot contents (corpus size, cluster count)

	// Shards splits the PathSim candidate space over max(1, Shards)
	// in-process ranges; answers are bitwise-identical at any count.
	// Only bench/'s sharded3 workload sets it, and no flag or endpoint
	// exposes it. ROADMAP item 4 removes it, with the partitioner in New,
	// once item 1(a) has retired that workload.
	Shards int

	CacheCapacity int           // result cache entries; 0 = 4096, < 0 disables
	Workers       int           // sparse pool worker cap (0 = leave as configured)
	MaxConcurrent int           // admission ceiling for heavy queries (default 4×workers)
	AdmissionWait time.Duration // max time queued for admission before 503 (default 5s, < 0 fail-fast)

	// Overload protection (see admission.go and the OPERATIONS.md
	// runbook). The adaptive limiter walks the effective concurrency
	// limit between AdmissionFloor and MaxConcurrent, comparing the
	// windowed p99 of admitted query requests against SLOTargetP99
	// every ControlInterval.
	DefaultTimeout  time.Duration // per-request deadline when the client sends no timeout_ms (0 = none)
	SLOTargetP99    time.Duration // admission controller's p99 target (default 150ms)
	AdmissionFloor  int           // lowest adaptive limit (default max(1, MaxConcurrent/8))
	ControlInterval time.Duration // controller tick (default 100ms; < 0 disables the controller)
	BrownoutEnter   int           // consecutive over-target ticks before brownout (default 5)
	BrownoutExit    int           // consecutive healthy ticks before recovery (default 10)

	Chaos *chaos.Injector // deterministic fault injection (tests; nil in production)

	Pprof   bool // expose net/http/pprof under /debug/pprof/
	NoTrace bool // disable per-request span traces (stage histograms and slowlog stay empty)
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = ":8080"
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 4096
	}
	if o.AdmissionWait == 0 {
		o.AdmissionWait = 5 * time.Second
	}
	if o.SLOTargetP99 == 0 {
		o.SLOTargetP99 = 150 * time.Millisecond
	}
	if o.ControlInterval == 0 {
		o.ControlInterval = 100 * time.Millisecond
	}
	if o.BrownoutEnter == 0 {
		o.BrownoutEnter = 5
	}
	if o.BrownoutExit == 0 {
		o.BrownoutExit = 10
	}
	return o
}

// cacheShards is the result cache's lock striping.
const cacheShards = 16

// brownoutK is the top-k truncation during brownout.
const brownoutK = 5

// Server wires the cluster's Views, cache and admission controller
// behind an http.Handler.
type Server struct {
	opts  Options
	cache *Cache
	obs   *obs.Registry // one family per endpoint: request counters, latency and stage histograms
	ing   ingestStats
	adm   *admission
	rejAd atomic.Uint64 // heavy requests rejected at admission
	mux   *http.ServeMux
	hs    *http.Server
	ln    net.Listener

	coord *cluster.Coordinator // every write; publishes the View every read loads

	closed   atomic.Bool // set by Shutdown: top-k misses fail with errShutdown
	shutOnce sync.Once
	shutErr  error
}

var errShutdown = errors.New("serve: server is shutting down")

// errCacheOnly is a cache-only topK's miss: a browned-out handler sheds it.
var errCacheOnly = errors.New("serve: cache-only miss")

// ingestStats counts the ingestion write path (see /metrics and
// /v1/stats).
type ingestStats struct {
	batches  atomic.Uint64 // accepted delta batches
	deltas   atomic.Uint64 // deltas in accepted batches
	rejected atomic.Uint64 // batches rejected by validation
	nanos    atomic.Int64  // cumulative apply+rebuild time
}

// New builds a server and materializes its first snapshot synchronously,
// so the returned server is immediately healthy. Call Shutdown to stop
// the admission controller and refuse further top-k misses.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	if opts.Workers > 0 {
		sparse.Parallelism(opts.Workers)
	}
	if opts.MaxConcurrent == 0 {
		opts.MaxConcurrent = 4 * sparse.Parallelism(0)
	}
	if opts.AdmissionFloor == 0 {
		opts.AdmissionFloor = max(1, opts.MaxConcurrent/8)
	}
	s := &Server{
		opts:  opts,
		cache: NewCache(opts.CacheCapacity, cacheShards),
		mux:   http.NewServeMux(),
	}
	s.adm = newAdmission(opts.AdmissionFloor, opts.MaxConcurrent,
		opts.SLOTargetP99, opts.ControlInterval, opts.BrownoutEnter, opts.BrownoutExit)
	// The cluster builds and publishes the first generation once for all
	// its shards, before New returns. One shard owns the whole
	// candidate range — bounds [0, 0], the last shard absorbing the type.
	// More balance the scan work of the default index — the entries of
	// its factor's transpose that a candidate's mids reach, which is by
	// symmetry what the shard owning the candidate scans for it — over a
	// throwaway corpus of the same seed: the partition is part of the
	// cluster's identity, fixed before its first generation is built.
	spec, shards := opts.Models.spec(), max(1, opts.Shards)
	part := cluster.Partition{Of: string(pathAPVPA[0]), Bounds: []int{0, 0}}
	if shards > 1 {
		net := dblp.Generate(stats.NewRNG(opts.Seed), spec.Corpus).Net
		full, err := pathsim.NewRangeIndexCtx(context.Background(), net, pathAPVPA, 0, net.Count(pathAPVPA[0]))
		if err != nil {
			panic("serve: boot: " + err.Error())
		}
		part = cluster.PartitionByNNZ(part.Of, full.Dim(), shards, full.RowNNZ)
	}
	var err error
	if s.coord, err = cluster.NewLocalCluster(shards, part, spec, nil, opts.Seed); err != nil {
		panic("serve: boot: " + err.Error())
	}
	if opts.ControlInterval > 0 {
		go s.controlLoop()
	} else {
		close(s.adm.done) // no controller goroutine to wait for at shutdown
	}
	// Each served endpoint is stated once, here: its pattern, admission
	// class, handler and stage plan (the span names its handler opens
	// that get a histogram). The registry is built from this table, so
	// the /metrics and /v1/stats series sets are fixed for the process
	// lifetime and no request creates anything in it.
	endpoints := []struct {
		pattern, class string
		h              http.HandlerFunc
		stages         []string
	}{
		{"/healthz", classCritical, s.handleHealthz, nil},
		{"/metrics", classCritical, s.handleMetrics, nil},
		{"/v1/stats", classCheap, s.live(s.handleStats), []string{"collect", "serialize"}},
		{"/v1/rank", classCheap, s.live(s.handleRank), []string{"params", "rank", "render", "serialize"}},
		{"/v1/clusters", classCheap, s.live(s.handleClusters), []string{"params", "cluster", "score", "serialize"}},
		{"/v1/pathsim/topk", classQuery, s.live(s.handleTopK),
			[]string{"admission", "params", "resolve", "query", "cache", "kernel", "render", "serialize"}},
		{"/v1/rebuild", classWrite, s.handleRebuild, []string{"admission", "params", "rebuild", "serialize"}},
		{"/v1/ingest", classWrite, s.handleIngest, []string{"admission", "decode", "apply", "serialize"}},
		{"/v1/debug/slowlog", classCheap, s.handleSlowlog, nil},
	}
	plans := make([]obs.Endpoint, len(endpoints))
	for i, e := range endpoints {
		plans[i] = obs.Endpoint{Name: e.pattern, Stages: e.stages}
	}
	s.obs = obs.NewRegistry(plans...)
	for _, e := range endpoints {
		s.route(s.obs.Family(e.pattern), e.class, e.h)
	}
	if opts.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Snapshot returns the live snapshot: the cluster's published View.
func (s *Server) Snapshot() *cluster.View { return s.coord.View() }

// Start listens on opts.Addr (":0" picks a free port) and serves in a
// background goroutine. It returns the bound address.
func (s *Server) Start() (string, error) {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.hs = &http.Server{Handler: s.mux}
	go func() { _ = s.hs.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shutdown drains in-flight HTTP requests (bounded by ctx's deadline),
// stops the admission controller and refuses every later top-k miss
// with errShutdown. A miss already past that check runs to its answer
// on its own goroutine; there is nothing queued to fail or wait for.
// Safe to call whether or not Start was used; idempotent: the second
// and later calls are no-ops returning the first call's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		if s.hs != nil {
			s.shutErr = s.hs.Shutdown(ctx)
		}
		s.adm.stop()
		s.closed.Store(true)
	})
	return s.shutErr
}

// controlLoop drives the admission controller: every tick, one AIMD
// step against the latest latency window and pool backlog.
func (s *Server) controlLoop() {
	defer close(s.adm.done)
	t := time.NewTicker(s.adm.interval)
	defer t.Stop()
	for {
		select {
		case <-s.adm.quit:
			return
		case <-t.C:
			s.controlStep()
		}
	}
}

// controlStep is one controller tick (exposed separately so tests can
// drive the control loop deterministically with ControlInterval < 0).
func (s *Server) controlStep() { s.adm.step(sparse.QueueDepth()) }

// route registers an instrumented handler for fam's endpoint: each
// request gets a span trace (unless Options.NoTrace) carried in the
// statusRecorder, and the wrapper finishes it — closing any span the
// handler left open, feeding the stage histograms and the slowlog —
// before counting the request in fam, traced or not. Heavy endpoints
// (classQuery, classWrite) additionally get their per-request deadline
// installed (timeout_ms or DefaultTimeout), pass through the admission
// limiter under an "admission" span, and — when admitted and
// successful — feed the controller's latency signal.
func (s *Server) route(fam *obs.Family, class string, h http.HandlerFunc) {
	heavy := class == classQuery || class == classWrite
	s.mux.HandleFunc(fam.Name(), func(w http.ResponseWriter, r *http.Request) {
		var start time.Time
		var tr *obs.Trace
		if s.opts.NoTrace {
			start = time.Now()
		} else {
			tr = fam.StartTrace()
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK, tr: tr}
		admitted := false
		finish := func() {
			d := tr.Finish(rec.code)
			if tr == nil {
				d = time.Since(start)
			}
			fam.Observe(rec.code, d)
			if rec.code == http.StatusGatewayTimeout {
				s.adm.timeouts.Add(1)
			}
			if admitted && class == classQuery && rec.code < 400 {
				// The controller's feedback signal: full-request latency
				// (admission wait included — queueing delay is exactly
				// what the limiter must react to) of successful queries.
				s.adm.lat.Observe(d)
			}
		}
		if heavy {
			// Deadline propagation starts here: the ctx flows through
			// admission → materialization → kernel call.
			if d := s.requestTimeout(r); d > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), d)
				defer cancel()
				r = r.WithContext(ctx)
			}
			if s.opts.Chaos.RequestFault() {
				httpError(rec, http.StatusInternalServerError, "chaos: injected fault")
				finish()
				return
			}
			ad := tr.Start("admission")
			release, code, msg := s.admit(r, class)
			tr.End(ad)
			if release == nil {
				if msg == "" {
					s.shed(rec, class)
				} else {
					httpError(rec, code, "%s", msg)
				}
				finish()
				return
			}
			admitted = true
			defer release()
		}
		h(rec, r)
		finish()
	})
}

// requestTimeout resolves the request's deadline: an explicit
// timeout_ms query parameter wins, otherwise Options.DefaultTimeout
// (0 = none). A timeout_ms past the longest representable deadline asks
// for that one rather than wrapping. The RawQuery substring probe keeps
// the common no-timeout-configured path completely allocation-free.
func (s *Server) requestTimeout(r *http.Request) time.Duration {
	if strings.Contains(r.URL.RawQuery, "timeout_ms") {
		if v := r.URL.Query().Get("timeout_ms"); v != "" {
			if ms, err := strconv.Atoi(v); err == nil && ms > 0 {
				return min(time.Duration(ms), math.MaxInt64/time.Millisecond) * time.Millisecond
			}
		}
	}
	return s.opts.DefaultTimeout
}

// admit acquires an admission slot for the given class, waiting at most
// opts.AdmissionWait (negative: fail fast, no queueing). On success it
// returns the release function; on rejection it returns a nil release
// with the response status — 503 with an empty msg means "shed, use the
// machine-readable overload body", 504 means the request's own deadline
// expired while queued. Bounding the wait is what turns saturation into
// prompt, visible 503s instead of an unbounded queue of hung requests.
//
// Class policy: writes (ingest/rebuild) shed without queueing whenever
// the server is degraded or inflight is at 3/4 of the adaptive limit —
// they are the first load to go, protecting query capacity.
func (s *Server) admit(r *http.Request, class string) (release func(), code int, msg string) {
	a := s.adm
	if class == classWrite {
		lim := int(a.limit.Load())
		if a.degraded.Load() || int(a.inflight.Load()) >= (lim*3+3)/4 {
			a.shedWrite.Add(1)
			s.rejAd.Add(1)
			return nil, http.StatusServiceUnavailable, ""
		}
	}
	// Fast path: a free slot costs no timer.
	select {
	case a.sem <- struct{}{}:
		a.inflight.Add(1)
		return func() { a.inflight.Add(-1); <-a.sem }, 0, ""
	default:
	}
	if s.opts.AdmissionWait < 0 {
		a.shedFor(class)
		s.rejAd.Add(1)
		return nil, http.StatusServiceUnavailable, ""
	}
	t := time.NewTimer(s.opts.AdmissionWait)
	defer t.Stop()
	select {
	case a.sem <- struct{}{}:
		a.inflight.Add(1)
		return func() { a.inflight.Add(-1); <-a.sem }, 0, ""
	case <-t.C:
		a.shedFor(class)
		s.rejAd.Add(1)
		return nil, http.StatusServiceUnavailable, ""
	case <-r.Context().Done():
		if errors.Is(r.Context().Err(), context.DeadlineExceeded) {
			return nil, http.StatusGatewayTimeout, "deadline exceeded while queued for admission"
		}
		return nil, http.StatusServiceUnavailable, "request canceled while queued for admission"
	}
}

// shedFor attributes one shed to the class's counter.
func (a *admission) shedFor(class string) {
	if class == classWrite {
		a.shedWrite.Add(1)
	} else {
		a.shedQuery.Add(1)
	}
}

// shed writes the machine-readable overload response every shed path
// shares: a Retry-After header (seconds, for generic clients) plus a
// JSON body with the class that was shed and a millisecond-resolution
// backoff hint (loadgen honors it in closed-loop mode).
func (s *Server) shed(w http.ResponseWriter, class string) {
	ms := s.adm.retryAfterMS()
	w.Header().Set("Retry-After", strconv.Itoa((ms+999)/1000))
	jw := newJSONWriter()
	jw.beginObject()
	jw.key("class").str(class)
	jw.key("error").str("overloaded")
	jw.key("retry_after_ms").integer(int64(ms))
	jw.endObject()
	jw.send(w, http.StatusServiceUnavailable)
}

type statusRecorder struct {
	http.ResponseWriter
	code int
	tr   *obs.Trace // this request's trace (nil when tracing is off)
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// traceOf recovers the request's trace from the writer the route
// wrapper installed. Handlers invoked outside route (none today) just
// get nil, which the whole obs API tolerates.
func traceOf(w http.ResponseWriter) *obs.Trace {
	if rec, ok := w.(*statusRecorder); ok {
		return rec.tr
	}
	return nil
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	jw := newJSONWriter()
	jw.errorBody(fmt.Sprintf(format, args...))
	jw.send(w, code)
}

// intParam parses an integer query parameter with a default. Handlers
// parse the URL query once and pass the values in (url.Query re-parses
// and re-allocates on every call).
func intParam(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	return n, nil
}

// live adapts a handler to the live snapshot: the handler loads the
// published View once and reads it throughout — models, names and, for
// top-k, the path's index — so a write landing mid-request changes
// nothing it reads.
func (s *Server) live(h func(w http.ResponseWriter, r *http.Request, v *cluster.View)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h(w, r, s.coord.View())
	}
}

// topK is the shared cache→kernel query path, also driven directly by
// the serving benchmarks. The query runs against v's ranges of path, a
// resolved path whose endpoint type has dim objects; the cache key
// carries the View's epoch and the path, so neither a write nor a
// different path can ever serve a stale or foreign answer. A miss is
// one View.TopK call on the calling goroutine: misses on different
// cores compute side by side and none waits for another. It returns the
// answer, the epoch it came from, and whether it was a cache hit. A
// cacheOnly miss reaches no kernel: it fails with errCacheOnly.
//
// A trace carried by ctx gets child spans under the caller's open span:
// "cache" (noted hit/miss), then on a miss "kernel".
func (s *Server) topK(ctx context.Context, v *cluster.View, path string, dim, x, k int, cacheOnly bool) ([]pathsim.Pair, int64, bool, error) {
	tr := obs.FromContext(ctx)
	sp := tr.Start("cache")
	key := cacheKey{v.Epoch, path, x, k}
	if pairs, ok := s.cache.Get(key); ok {
		tr.Note("hit")
		tr.End(sp)
		return pairs, v.Epoch, true, nil
	}
	tr.Note("miss")
	if cacheOnly {
		tr.End(sp)
		return nil, 0, false, errCacheOnly
	}
	sp = tr.Next(sp, "kernel")
	pairs, err := s.kernel(ctx, v, path, dim, x, k)
	tr.End(sp)
	if err != nil {
		return nil, 0, false, err
	}
	s.cache.Put(key, pairs) // View.TopK's answer is its own slice: nothing else holds it
	return pairs, v.Epoch, false, nil
}

// kernel answers one top-k miss. A server shutting down refuses it, an
// id outside the endpoint type fails it, and a context that is done —
// also while a chaos kernel delay runs — abandons it before the call.
func (s *Server) kernel(ctx context.Context, v *cluster.View, path string, dim, x, k int) ([]pathsim.Pair, error) {
	if s.closed.Load() {
		return nil, errShutdown
	}
	if x < 0 || x >= dim {
		return nil, fmt.Errorf("serve: id %d out of range [0,%d)", x, dim)
	}
	if d := s.opts.Chaos.KernelDelay(); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return v.TopK(ctx, path, x, k)
}

// TopK is the exported form of the cached query path, against the live
// generation's default (APVPA) index.
func (s *Server) TopK(ctx context.Context, x, k int) (pairs []pathsim.Pair, hit bool, err error) {
	v := s.coord.View()
	pairs, _, hit, err = s.topK(ctx, v, pathAPVPAKey, v.IndexDim, x, k, false)
	return pairs, hit, err
}

// --- handlers --------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

// handleSlowlog serves the trace retention buffers: the N slowest
// completed requests since boot and the N most recent, as span trees.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	log := s.obs.Log()
	render := func(traces []*obs.Trace) []*obs.TraceJSON {
		out := make([]*obs.TraceJSON, len(traces))
		for i, t := range traces {
			out[i] = t.Snapshot()
		}
		return out
	}
	jw := newJSONWriter()
	jw.beginObject()
	jw.key("recent").value(render(log.Recent()))
	jw.key("slowest").value(render(log.Slowest()))
	jw.endObject()
	jw.send(w, http.StatusOK)
}

// writeLatency renders the request and stage latency quantiles of
// /v1/stats. The key set is static — every endpoint and every planned
// stage is always present, populated or not — so the response shape
// never depends on which requests happened to arrive first (the replay
// harness digests response shapes). Families and Stages come sorted.
func (s *Server) writeLatency(w *jsonWriter) {
	quant := func(h *obs.Hist) {
		w.key("count").unsigned(h.Count())
		w.key("p50_us").float(float64(h.Quantile(0.50)) / 1e3)
		w.key("p95_us").float(float64(h.Quantile(0.95)) / 1e3)
		w.key("p99_us").float(float64(h.Quantile(0.99)) / 1e3)
	}
	w.beginObject()
	for _, f := range s.obs.Families() {
		w.key(f.Name()).beginObject()
		quant(f.Latency())
		w.key("stages").beginObject()
		for _, stage := range f.Stages() {
			w.key(stage).beginObject()
			quant(f.Stage(stage))
			w.endObject()
		}
		w.endObject()
		w.endObject()
	}
	w.endObject()
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, snap *cluster.View) {
	tr := traceOf(w)
	sp := tr.Start("collect")
	q := r.URL.Query()
	types := snap.Corpus.Net.Types()
	slices.Sort(types)
	es := snap.Corpus.Net.PathEngine().Stats()
	cs := s.cache.Stats()
	tr.Next(sp, "serialize")
	jw := newJSONWriter()
	jw.beginObject()
	jw.key("admission").beginObject()
	jw.key("brownouts").unsigned(s.adm.brownouts.Load())
	jw.key("ceiling").integer(int64(s.adm.ceil))
	jw.key("degraded").boolean(s.adm.Degraded())
	jw.key("degraded_responses").unsigned(s.adm.degradedServed.Load())
	jw.key("floor").integer(int64(s.adm.floor))
	jw.key("inflight").integer(s.adm.inflight.Load())
	jw.key("limit").integer(int64(s.adm.Limit()))
	jw.key("shed_query").unsigned(s.adm.shedQuery.Load())
	jw.key("shed_write").unsigned(s.adm.shedWrite.Load())
	jw.key("slo_target_p99_us").float(float64(s.adm.slo) / 1e3)
	jw.key("timeouts").unsigned(s.adm.timeouts.Load())
	jw.key("windowed_p99_us").float(float64(s.adm.windowedP99.Load()) / 1e3)
	jw.endObject()
	jw.key("admission_rejected").unsigned(s.rejAd.Load())
	jw.key("build_seconds").float(snap.BuildTime.Seconds())
	jw.key("built_at").str(snap.BuiltAt.UTC().Format(time.RFC3339Nano))
	jw.key("cache").beginObject() // CacheStats field order
	jw.key("hits").unsigned(cs.Hits)
	jw.key("misses").unsigned(cs.Misses)
	jw.key("entries").integer(int64(cs.Entries))
	jw.key("shards").integer(int64(cs.Shards))
	jw.endObject()
	jw.key("epoch").integer(snap.Epoch)
	jw.key("ingest").beginObject()
	jw.key("apply_seconds").float(time.Duration(s.ing.nanos.Load()).Seconds())
	jw.key("batches").unsigned(s.ing.batches.Load())
	jw.key("deltas").unsigned(s.ing.deltas.Load())
	jw.key("rejected").unsigned(s.ing.rejected.Load())
	jw.endObject()
	jw.key("latency")
	s.writeLatency(jw)
	jw.key("max_concurrent").integer(int64(cap(s.adm.sem)))
	jw.key("metapath").beginObject()
	jw.key("cache_entries").integer(int64(es.Entries))
	jw.key("cache_hits").unsigned(es.Hits)
	jw.key("cache_misses").unsigned(es.Misses)
	jw.key("gram_products").unsigned(es.Grams)
	jw.key("gram_seconds").float(es.GramTime.Seconds())
	jw.key("product_seconds").float(es.ProductTime.Seconds())
	jw.key("products").unsigned(es.Products)
	jw.key("transposes").unsigned(es.Transposes)
	jw.endObject()
	jw.key("objects").beginObject()
	for _, t := range types {
		jw.key(string(t)).integer(int64(snap.Corpus.Net.Count(t)))
	}
	jw.endObject()
	jw.key("pathsim").beginObject()
	jw.key("dim").integer(int64(snap.IndexDim))
	jw.key("nnz").integer(int64(snap.IndexNNZ))
	jw.endObject()
	jw.key("seed").integer(snap.Seed)
	jw.traceEcho(q, tr)
	jw.key("workers").integer(int64(sparse.Parallelism(0)))
	jw.endObject()
	jw.send(w, http.StatusOK)
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request, snap *cluster.View) {
	tr := traceOf(w)
	sp := tr.Start("params")
	q := r.URL.Query()
	top, err := intParam(q, "top", 10)
	if err != nil || top < 0 {
		httpError(w, http.StatusBadRequest, "top must be a non-negative integer")
		return
	}
	metric := q.Get("metric")
	var scores []float64
	iters, converged := snap.HITS.Iterations, snap.HITS.Converged
	switch metric {
	case "", "pagerank":
		metric = "pagerank"
		scores, iters, converged = snap.PageRank.Scores, snap.PageRank.Iterations, snap.PageRank.Converged
	case "authority":
		scores = snap.HITS.Authority
	case "hub":
		scores = snap.HITS.Hub
	default:
		httpError(w, http.StatusBadRequest, "unknown metric %q (want pagerank|authority|hub)", metric)
		return
	}
	sp = tr.Next(sp, "rank")
	ids := stats.TopK(scores, top)
	sp = tr.Next(sp, "render")
	jw := newJSONWriter()
	jw.beginObject()
	jw.key("converged").boolean(converged)
	jw.key("epoch").integer(snap.Epoch)
	jw.key("graph").str(pathAPA.String())
	jw.key("iterations").integer(int64(iters))
	jw.key("metric").str(metric)
	jw.key("top").beginArray()
	names := snap.Corpus.Net.Names(dblp.TypeAuthor)
	for _, id := range ids {
		jw.scored(id, names[id], scores[id])
	}
	jw.endArray()
	tr.Next(sp, "serialize")
	jw.traceEcho(q, tr)
	jw.endObject()
	jw.send(w, http.StatusOK)
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request, snap *cluster.View) {
	tr := traceOf(w)
	sp := tr.Start("params")
	q := r.URL.Query()
	top, err := intParam(q, "top", 5)
	if err != nil || top < 0 {
		httpError(w, http.StatusBadRequest, "top must be a non-negative integer")
		return
	}
	algo := q.Get("algo")
	switch algo {
	case "":
		algo = "rankclus"
	case "rankclus", "netclus":
	default:
		httpError(w, http.StatusBadRequest, "unknown algo %q (want rankclus|netclus)", algo)
		return
	}
	c := snap.Corpus
	jw := newJSONWriter()
	jw.beginObject()
	jw.key("algo").str(algo)
	sp = tr.Next(sp, "cluster")
	// rows writes one ranked member list of a cluster; the members of a
	// cluster object go out in key order.
	rows := func(t hin.Type, ids []int, scores []float64) {
		jw.key(string(t) + "s").beginArray()
		names := c.Net.Names(t)
		for _, id := range ids {
			jw.scored(id, names[id], scores[id])
		}
		jw.endArray()
	}
	jw.key("clusters").beginArray()
	switch algo {
	case "rankclus":
		m := snap.RankClus
		for k := 0; k < m.K; k++ {
			jw.beginObject()
			rows(dblp.TypeAuthor, m.TopY(k, top), m.RankY[k])
			jw.key("id").integer(int64(k))
			rows(dblp.TypeVenue, m.TopX(k, top), m.RankX[k])
			jw.endObject()
		}
		jw.endArray()
		sp = tr.Next(sp, "score")
		nmi := snap.RankClusNMI()
		jw.key("epoch").integer(snap.Epoch)
		jw.key("k").integer(int64(m.K))
		jw.key("nmi").float(nmi)
	case "netclus":
		m := snap.NetClus
		// Attribute indexes follow Corpus.Star: 0 author, 1 venue, 2 term.
		for k := 0; k < m.K; k++ {
			jw.beginObject()
			rows(dblp.TypeAuthor, m.TopAttr(0, k, top), m.RankDist[0][k])
			jw.key("id").integer(int64(k))
			rows(dblp.TypeTerm, m.TopAttr(2, k, top), m.RankDist[2][k])
			rows(dblp.TypeVenue, m.TopAttr(1, k, top), m.RankDist[1][k])
			jw.endObject()
		}
		jw.endArray()
		sp = tr.Next(sp, "score")
		paper, venue := snap.NetClusNMI()
		jw.key("epoch").integer(snap.Epoch)
		jw.key("k").integer(int64(m.K))
		jw.key("nmi_paper").float(paper)
		jw.key("nmi_venue").float(venue)
	}
	tr.Next(sp, "serialize")
	jw.traceEcho(q, tr)
	jw.endObject()
	jw.send(w, http.StatusOK)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request, snap *cluster.View) {
	tr := traceOf(w)
	sp := tr.Start("params")
	q := r.URL.Query()
	ctx := r.Context()
	if tr != nil {
		ctx = obs.WithTrace(ctx, tr)
	}
	k, err := intParam(q, "k", 10)
	if err != nil || k < 1 {
		httpError(w, http.StatusBadRequest, "k must be a positive integer")
		return
	}
	// Brownout: truncate k and answer from already-materialized state
	// only — no index builds, no kernel dispatches (cache misses shed).
	degraded := s.adm.Degraded()
	if degraded && k > brownoutK {
		k = brownoutK
	}
	// path= selects the meta-path; empty keeps the prebuilt APVPA index.
	// Any parse/schema/symmetry problem is the client's, hence 400. The
	// View builds a new path's index here, on this request's goroutine,
	// before its kernel call — and memoizes it, so repeat queries pay one lookup (the resolve span's note
	// says which way it went: prebuilt, cached, or built). A degraded
	// server starts no materializations: a path not already built sheds.
	sp = tr.Next(sp, "resolve")
	pathKey, endpoint := pathAPVPAKey, pathAPVPA[0]
	if spec := q.Get("path"); spec == "" {
		tr.Note("prebuilt")
	} else {
		held := false
		path, err := snap.Corpus.Net.ParseMetaPath(spec)
		if err == nil {
			err = pathsim.ValidatePath(path)
		}
		if err == nil {
			pathKey, endpoint = path.String(), path[0]
			held, err = snap.Resolve(ctx, pathKey, !degraded)
		}
		switch {
		case degraded && !held:
			tr.Note("degraded-shed")
			s.adm.shedFor(classQuery)
			s.shed(w, classQuery)
			return
		case err != nil && ctx.Err() != nil:
			tr.Note("deadline")
			httpError(w, http.StatusGatewayTimeout, "deadline exceeded while resolving path: %v", ctx.Err())
			return
		case err != nil:
			httpError(w, http.StatusBadRequest, "invalid path: %v", err)
			return
		case held:
			tr.Note("cached")
		default:
			tr.Note("built")
		}
	}
	dim := snap.Corpus.Net.Count(endpoint)
	// The queried objects live at the path's endpoint type (author for
	// the default APVPA). name= (author= kept as an alias) looks an
	// object up by name within that type.
	x := -1
	name := q.Get("name")
	if name == "" {
		name = q.Get("author")
	}
	if name != "" {
		if x = snap.Corpus.Net.Lookup(endpoint, name); x < 0 {
			httpError(w, http.StatusNotFound, "unknown %s %q", endpoint, name)
			return
		}
	} else {
		x, err = intParam(q, "id", -1)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if x < 0 || x >= dim {
		httpError(w, http.StatusBadRequest, "need id in [0,%d) or name=<%s name>", dim, endpoint)
		return
	}
	sp = tr.Next(sp, "query")
	// A degraded server answers from the cache only: a hit serves
	// (annotated), a miss sheds — the brownout's whole point is that no
	// query reaches the kernels.
	pairs, epoch, hit, err := s.topK(ctx, snap, pathKey, dim, x, k, degraded)
	if err != nil {
		var ce *cluster.ClientError
		switch {
		case errors.Is(err, errCacheOnly):
			s.adm.shedFor(classQuery)
			s.shed(w, classQuery)
		case errors.As(err, &ce):
			// The View rejected the query's meta-path after all (it was
			// resolved above, so only past the View's memo cap).
			httpError(w, http.StatusBadRequest, "invalid path: %v", err)
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			// Partial-work accounting: the trace's open spans show the
			// stage the deadline landed in; the note marks it for the
			// slowlog.
			tr.Note("deadline")
			httpError(w, http.StatusGatewayTimeout, "deadline exceeded: %v", err)
		default:
			httpError(w, http.StatusServiceUnavailable, "%v", err)
		}
		return
	}
	source := "batch" // computed for this request, not read from the cache
	if hit {
		source = "cache"
	}
	sp = tr.Next(sp, "render")
	jw := newJSONWriter()
	jw.beginObject()
	if degraded {
		s.adm.degradedServed.Add(1)
		jw.key("degraded").boolean(true)
	}
	jw.key("epoch").integer(epoch)
	jw.key("k").integer(int64(k))
	jw.key("path").str(pathKey)
	names := snap.Corpus.Net.Names(endpoint)
	jw.key("query").beginObject()
	jw.key("id").integer(int64(x))
	jw.key("name").str(names[x])
	jw.endObject()
	jw.key("results").beginArray()
	for _, p := range pairs {
		jw.scored(p.ID, names[p.ID], p.Score)
	}
	jw.endArray()
	jw.key("source").str(source)
	tr.Next(sp, "serialize")
	jw.traceEcho(q, tr)
	jw.endObject()
	jw.send(w, http.StatusOK)
}

// ingestRequest is the POST /v1/ingest body: a delta batch plus
// options. See internal/ingest for delta semantics.
type ingestRequest struct {
	Deltas        []ingest.Delta `json:"deltas"`
	RefreshModels bool           `json:"refresh_models,omitempty"`
}

// maxIngestBody bounds the /v1/ingest request body (16 MiB ≈ hundreds
// of thousands of deltas), so a misbehaving client cannot balloon the
// server's memory with one request.
const maxIngestBody = 16 << 20

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "ingest requires POST")
		return
	}
	tr := traceOf(w)
	sp := tr.Start("decode")
	q := r.URL.Query()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody))
	dec.DisallowUnknownFields()
	var req ingestRequest
	if err := dec.Decode(&req); err != nil {
		s.ing.rejected.Add(1)
		httpError(w, http.StatusBadRequest, "invalid ingest body: %v", err)
		return
	}
	// The body is one object: only whitespace may follow it. A second
	// value or trailing garbage would otherwise be dropped unread.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		s.ing.rejected.Add(1)
		httpError(w, http.StatusBadRequest, "invalid ingest body: data after the JSON object")
		return
	}
	if len(req.Deltas) == 0 {
		s.ing.rejected.Add(1)
		httpError(w, http.StatusBadRequest, "ingest body carries no deltas")
		return
	}
	sp = tr.Next(sp, "apply")
	start := time.Now()
	v, sum, err := s.coord.Ingest(req.Deltas, req.RefreshModels)
	if err != nil {
		s.ing.rejected.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err) // the cluster rejected the batch
		return
	}
	s.ing.batches.Add(1)
	s.ing.deltas.Add(uint64(len(req.Deltas)))
	s.ing.nanos.Add(int64(time.Since(start)))
	tr.Next(sp, "serialize")
	jw := newJSONWriter()
	jw.beginObject()
	jw.key("applied").beginObject() // ingest.Summary field order
	jw.key("nodes_added").integer(int64(sum.NodesAdded))
	jw.key("nodes_removed").integer(int64(sum.NodesRemoved))
	jw.key("edges_added").integer(int64(sum.EdgesAdded))
	jw.key("edges_removed").integer(int64(sum.EdgesRemoved))
	jw.key("relations_touched").integer(int64(sum.Relations))
	jw.endObject()
	jw.key("build_seconds").float(v.BuildTime.Seconds())
	jw.key("epoch").integer(v.Epoch)
	jw.traceEcho(q, tr)
	jw.endObject()
	jw.send(w, http.StatusOK)
}

func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "rebuild requires POST")
		return
	}
	tr := traceOf(w)
	sp := tr.Start("params")
	q := r.URL.Query()
	seed, err := intParam(q, "seed", int(s.coord.View().Seed+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sp = tr.Next(sp, "rebuild")
	v, err := s.coord.Rebuild(int64(seed))
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	tr.Next(sp, "serialize")
	jw := newJSONWriter()
	jw.beginObject()
	jw.key("build_seconds").float(v.BuildTime.Seconds())
	jw.key("epoch").integer(v.Epoch)
	jw.key("seed").integer(v.Seed)
	jw.traceEcho(q, tr)
	jw.endObject()
	jw.send(w, http.StatusOK)
}
