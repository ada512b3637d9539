package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hinet/internal/cluster"
	"hinet/internal/dblp"
	"hinet/internal/ingest"
	"hinet/internal/loadgen"
	"hinet/internal/pathsim"
	"hinet/internal/serve"
	"hinet/internal/stats"
)

// workload is one traffic mix against one server configuration. Every
// server option not named here stays at its `hinet serve` default.
type workload struct {
	name   string
	medium bool    // medium corpus (4 000 authors) instead of the default (800)
	shards int     // serve.Options.Shards
	cache  int     // serve.Options.CacheCapacity: 0 = default 4096 entries, -1 = off
	k      int     // top-k size
	zipf   float64 // key skew; 0 = uniform keys
	mixed  bool    // the loadgen read/write mix instead of top-k reads only
	rps    int     // schedule length per timed second; a round that exhausts it ends early
}

func workloads() []workload {
	return []workload{
		{name: "topk_hot", k: 10, zipf: 1.1, rps: 75_000},
		{name: "topk_cold", medium: true, cache: -1, k: 100, rps: 15_000},
		{name: "sharded3", medium: true, cache: -1, shards: 3, k: 100, rps: 10_000},
		{name: "mixed_rw", k: 10, zipf: 1.1, mixed: true, rps: 8_000},
	}
}

// mixedPaths are the meta-paths mixed_rw queries: the prebuilt index and
// two the server materializes on first use and again after every ingest.
var mixedPaths = []string{"", "A-P-A", "A-P-T-P-A"}

const mixedMix = "pathsim=60,rank=20,clusters=5,stats=10,ingest=1"

func (w workload) paths() []string {
	if w.mixed {
		return mixedPaths
	}
	return []string{""}
}

func (w workload) corpus(smoke bool) dblp.Config {
	switch {
	case smoke && w.medium:
		return dblp.Config{AuthorsPerArea: 60, Papers: 400}
	case smoke:
		return dblp.Config{AuthorsPerArea: 30, Papers: 150}
	case w.medium:
		return dblp.Config{AuthorsPerArea: 1000, Papers: 10_000}
	}
	return dblp.Config{AuthorsPerArea: 200, Papers: 2000} // the library defaults, spelled out
}

func (w workload) options(smoke bool) serve.Options {
	return serve.Options{
		Addr:          "127.0.0.1:0",
		Seed:          1,
		Models:        serve.ModelConfig{Corpus: w.corpus(smoke)},
		Shards:        w.shards,
		CacheCapacity: w.cache,
	}
}

// request is one scheduled request: a generated loadgen event, or (ev
// nil) a top-k read of key id on the default path with the workload's k.
type request struct {
	id int32
	ev *loadgen.Event
}

func (w workload) wire(r request) (method, path, body string) {
	if r.ev == nil {
		return http.MethodGet, topkPath(int(r.id), w.k, ""), ""
	}
	if r.ev.Method == "" {
		return http.MethodGet, r.ev.Path, ""
	}
	return r.ev.Method, r.ev.Path, r.ev.Body
}

func topkPath(id, k int, spec string) string {
	p := "/v1/pathsim/topk?id=" + strconv.Itoa(id) + "&k=" + strconv.Itoa(k)
	if spec != "" {
		p += "&path=" + spec
	}
	return p
}

// schedule draws n requests from the seed; the server only ever sees
// these generated requests.
func (w workload) schedule(seed int64, c *dblp.Corpus, n int) ([]request, error) {
	if w.mixed {
		ks, err := loadgen.NewKeyspace(c, mixedPaths)
		if err != nil {
			return nil, err
		}
		mix, err := loadgen.ParseMix(mixedMix)
		if err != nil {
			return nil, err
		}
		tr, err := loadgen.Generate(loadgen.Config{Seed: seed, Arrival: loadgen.ArrivalClosed, Requests: n,
			Mix: mix, ZipfS: w.zipf, K: w.k, Paths: mixedPaths, IngestBatch: 3}, ks)
		if err != nil {
			return nil, err
		}
		reqs := make([]request, len(tr.Events))
		for i := range tr.Events {
			reqs[i].ev = &tr.Events[i]
		}
		return reqs, nil
	}
	rng := stats.NewRNG(seed)
	dim := c.Net.Count(dblp.TypeAuthor)
	draw := func() int { return rng.Intn(dim) }
	if w.zipf > 0 {
		// As loadgen does: Zipf ranks over a seeded popularity permutation.
		z, perm := stats.NewZipf(rng, dim, w.zipf), rng.Perm(dim)
		draw = func() int { return perm[z.Draw()] }
	}
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i].id = int32(draw())
	}
	return reqs, nil
}

// ingestBodies generates n distinct 3-paper ingest batches.
func ingestBodies(seed int64, c *dblp.Corpus, n int) ([]string, error) {
	ks, err := loadgen.NewKeyspace(c, nil)
	if err != nil {
		return nil, err
	}
	tr, err := loadgen.Generate(loadgen.Config{Seed: seed, Arrival: loadgen.ArrivalClosed, Requests: n,
		Mix: loadgen.Mix{Ingest: 1}, IngestBatch: 3}, ks)
	if err != nil {
		return nil, err
	}
	bodies := make([]string, len(tr.Events))
	for i, ev := range tr.Events {
		bodies[i] = ev.Body
	}
	return bodies, nil
}

// decodeBatch reads the deltas back out of a generated /v1/ingest body.
func decodeBatch(body string) ([]ingest.Delta, error) {
	var b struct{ Deltas []ingest.Delta }
	err := json.Unmarshal([]byte(body), &b)
	return b.Deltas, err
}

// sample is one completed request, kept raw so percentiles are exact.
type sample struct {
	idx    int32 // schedule index
	status int32 // 0 = transport error
	at     int64 // start, ns since the phase began
	ns     int64 // latency
	ref    int64 // the reference work that followed, ns
}

func (s sample) write(reqs []request) bool {
	r := reqs[s.idx]
	return r.ev != nil && r.ev.Method == http.MethodPost
}

// kept is a response body held back for the oracle, checked off the clock.
type kept struct {
	idx  int32
	body []byte
}

// client is one closed-loop caller on one keep-alive connection.
type client struct {
	hc      *http.Client
	buf     bytes.Buffer
	pace    pacer
	samples []sample
	kept    []kept
	topk    int // top-k replies seen; every 64th is kept
	errs    []string
	marks   []mark // the first client only: the window boundaries
}

// mark is a window boundary: when it fell and the process's CPU time then.
type mark struct {
	at  int64 // ns since the phase began
	cpu float64
}

func newClient(capacity int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{
		hc:      &http.Client{Transport: tr, Timeout: 30 * time.Second},
		samples: make([]sample, 0, capacity),
	}
}

// spanHeader carries the client span's id to the harness's server-side
// span in traced runs.
const spanHeader = "X-Bench-Span"

// do issues one request and reads the whole reply into c.buf.
func (c *client) do(base, method, path, body string, span int32) (int, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if span >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(int(span)))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// drive is the closed loop: each client sends its next request only when
// the previous reply is complete (and the reference work after it is
// done), taking requests in schedule order, until d has passed (zero = no
// limit) or the schedule runs out. off is the schedule index of reqs[0].
func (w workload) drive(base string, reqs []request, off int, cs []*client, d time.Duration, rec *recorder) {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ci == 0 {
				// A schedule that runs out early still closes its last
				// window, unless that would be a sliver.
				defer func() {
					if at := time.Since(start); at >= time.Duration(len(c.marks))*window-window/2 {
						c.marks = append(c.marks, mark{int64(at), cpuMicros()})
					}
				}()
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				method, path, body := w.wire(reqs[i])
				t0 := time.Now()
				at := t0.Sub(start)
				if ci == 0 && at >= time.Duration(len(c.marks))*window {
					// A window ends where the first client next looks at the
					// clock; the CPU reading belongs to that instant.
					c.marks = append(c.marks, mark{int64(at), cpuMicros()})
				}
				if d > 0 && at > d {
					return
				}
				sp := rec.begin("loadgen.request", -1, off+i, t0)
				status, err := c.do(base, method, path, body, sp)
				t1 := time.Now()
				rec.end(sp, t1)
				c.samples = append(c.samples, sample{idx: int32(off + i), status: int32(status),
					at: int64(at), ns: int64(t1.Sub(t0)), ref: c.pace.tick()})
				if err != nil && len(c.errs) < 5 {
					c.errs = append(c.errs, err.Error())
				}
				if status == http.StatusOK && strings.HasPrefix(path, "/v1/pathsim/topk") {
					if c.topk++; c.topk%64 == 0 {
						c.kept = append(c.kept, kept{idx: int32(off + i), body: bytes.Clone(c.buf.Bytes())})
					}
				}
			}
		}()
	}
	wg.Wait()
}

// booted is a live server under test.
type booted struct {
	s    *serve.Server
	hs   *http.Server // traced runs: the harness's own listener, wrapping the handler in spans
	base string
}

// boot builds the server, starts it on a loopback port and waits for the
// first /healthz 200; the time all of that took is setup_s.
func boot(opts serve.Options, rec *recorder) (*booted, time.Duration, error) {
	t0 := time.Now()
	b := &booted{s: serve.New(opts)}
	var addr string
	if rec == nil {
		a, err := b.s.Start()
		if err != nil {
			return nil, 0, err
		}
		addr = a
	} else {
		ln, err := net.Listen("tcp", opts.Addr)
		if err != nil {
			return nil, 0, err
		}
		b.hs = &http.Server{Handler: spanHandler(rec, b.s.Handler())}
		go func() { _ = b.hs.Serve(ln) }() // returns once stop calls Shutdown
		addr = ln.Addr().String()
	}
	b.base = "http://" + addr
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(b.base + "/healthz")
	if err != nil {
		return nil, 0, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("/healthz: %s", resp.Status)
	}
	return b, time.Since(t0), nil
}

func (b *booted) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if b.hs != nil {
		if err := b.hs.Shutdown(ctx); err != nil {
			return err
		}
	}
	return b.s.Shutdown(ctx)
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC() // the second cycle finishes the first one's sweep
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// cpuMicros is the process's user+system CPU time so far.
func cpuMicros() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for a bad who or buffer; neither can be
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// values holds a round's measurements: for each metric, one value per
// window (or one per round for what is not windowed).
type values map[string][]float64

func (v values) add(name string, x float64) { v[name] = append(v[name], x) }

// roundOut is what one fresh-server round measured: the end-to-end
// metrics scaled to the reference clock, the same unscaled, and the
// workload's own per-layer counters.
type roundOut struct {
	e2e, raw, layer   values
	attempted, failed int
	notes             []string
	kept              []kept
}

func (o *roundOut) fail(format string, args ...any) {
	o.failed++
	if len(o.notes) < 10 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// timed records a time measured while the reference work took ref ns.
func (o *roundOut) timed(name string, x, ref float64) {
	o.raw.add(name, x)
	o.e2e.add(name, x*refNanos/ref)
}

// tally counts a phase's outcomes and returns the schedule indices of
// the ingests the server accepted.
func (o *roundOut) tally(reqs []request, cs []*client) (applied []int32) {
	for _, c := range cs {
		for _, s := range c.samples {
			o.attempted++
			if s.status != http.StatusOK {
				o.fail("request %d: status %d", s.idx, s.status)
			} else if s.write(reqs) {
				applied = append(applied, s.idx)
			}
		}
		o.notes = append(o.notes, c.errs...)
		c.errs = nil
	}
	return applied
}

// windows cuts the timed phase at the first client's marks and records
// each window's throughput, CPU per request and latency percentiles,
// scaled by the window's own pace.
func (o *roundOut) windows(reqs []request, cs []*client) {
	marks := cs[0].marks
	type bucket struct {
		reads, writes, refs []int64
		ok, ref             int64
	}
	bs := make([]bucket, max(len(marks)-1, 0)) // what follows the last mark is a partial window, dropped
	for _, c := range cs {
		for _, s := range c.samples {
			i, _ := slices.BinarySearchFunc(marks, s.at+1, func(m mark, at int64) int { return cmp.Compare(m.at, at) })
			if i--; i < 0 || i >= len(bs) {
				continue
			}
			b := &bs[i]
			if s.write(reqs) {
				b.writes = append(b.writes, s.ns)
			} else {
				b.reads = append(b.reads, s.ns)
			}
			if s.status == http.StatusOK {
				b.ok++
			}
			b.refs = append(b.refs, s.ref)
			b.ref += s.ref
		}
	}
	for i, b := range bs {
		if len(b.reads) == 0 {
			continue
		}
		slices.Sort(b.refs)
		ref := pace(b.refs)
		width := float64(marks[i+1].at-marks[i].at) / 1e9
		rps := float64(b.ok) / width
		o.raw.add("throughput_rps", rps)
		o.e2e.add("throughput_rps", rps*ref/refNanos)
		// The reference work ran on the process's CPU too; it is neither
		// the server's nor the client's, so it comes off the bill.
		o.timed("cpu_us_per_req", (marks[i+1].cpu-marks[i].cpu-float64(b.ref)/1e3)/float64(len(b.refs)), ref)
		slices.Sort(b.reads)
		o.timed("read_p50_us", float64(percentile(b.reads, 0.50))/1e3, ref)
		o.timed("read_p95_us", float64(percentile(b.reads, 0.95))/1e3, ref)
		if len(b.writes) > 0 {
			slices.Sort(b.writes)
			o.timed("ingest_p50_ms", float64(percentile(b.writes, 0.50))/1e6, ref)
		}
	}
}

// round boots a fresh server, warms it with the head of the schedule,
// times the rest for d, and checks the answers off the clock.
func (w workload) round(cfg config, d time.Duration, reqs []request, warm int, probes []string, or *cluster.Models, rec *recorder) (*roundOut, error) {
	out := &roundOut{e2e: values{}, raw: values{}, layer: values{}}
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(len(reqs))
		defer cs[i].hc.CloseIdleConnections()
	}
	pc := &cs[0].pace
	base := liveHeap()
	before := pc.burst(2000)
	b, setup, err := boot(w.options(cfg.smoke), rec)
	if err != nil {
		return nil, err
	}
	defer b.stop()
	out.timed("setup_s", setup.Seconds(), (before+pc.burst(2000))/2)

	w.drive(b.base, reqs[:warm], 0, cs, 0, nil)
	applied := out.tally(reqs, cs)
	// One query per meta-path, so that the heap is read with every index
	// the workload uses built for the current epoch, whatever request the
	// warm-up happened to end on.
	for _, spec := range w.paths() {
		out.attempted++
		if status, err := cs[0].do(b.base, http.MethodGet, topkPath(0, w.k, spec), "", -1); err != nil || status != http.StatusOK {
			out.fail("settling path %q: status %d: %v", spec, status, err)
		}
	}
	for _, c := range cs {
		c.samples, c.marks, c.kept, c.topk = c.samples[:0], nil, nil, 0
	}
	// The harness's own allocations since base are garbage by now; what
	// is left is the server: models, indexes, warm caches.
	heap := (liveHeap() - base) / (1 << 20)
	out.raw.add("live_heap_mb", heap)
	out.e2e.add("live_heap_mb", heap)

	cache0 := b.s.CacheStats()
	w.drive(b.base, reqs[warm:], warm, cs, d, rec)
	cache1 := b.s.CacheStats()

	applied = append(applied, out.tally(reqs, cs)...)
	out.windows(reqs, cs)
	var reads []int64
	for _, c := range cs {
		for _, s := range c.samples {
			if !s.write(reqs) {
				reads = append(reads, s.ns)
			}
		}
		out.kept = append(out.kept, c.kept...)
	}
	if len(out.e2e["read_p50_us"]) == 0 {
		return nil, fmt.Errorf("%s: no window of the timed phase completed a read (%v)", w.name, out.notes)
	}
	slices.Sort(reads)
	out.layer.add("loadgen.read_p99_us", float64(percentile(reads, 0.99))/1e3)
	out.layer.add("loadgen.read_max_us", float64(reads[len(reads)-1])/1e3)
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	out.layer.add("serve.cache_hit_rate", float64(hits)/float64(max(hits+misses, 1)))
	adm := b.s.Admission()
	out.layer.add("serve.shed_total", float64(adm.ShedQuery+adm.ShedWrite))

	if w.mixed {
		w.checkMixed(out, b.base, reqs, applied, or, cs[0])
	} else {
		for _, kb := range out.kept {
			out.attempted++
			id := int(reqs[kb.idx].id)
			if msg := checkTopK(kb.body, id, w.k, or.PathSim.TopK(id, w.k)); msg != "" {
				out.fail("oracle: key %d: %s", id, msg)
			}
		}
	}
	if len(out.e2e["ingest_p50_ms"]) == 0 {
		// The timed phase held no write (the read-only workloads never do):
		// the write path is measured now, by sequential ingests on the
		// otherwise idle server, each between two readings of the pace.
		before, began := pc.burst(500), time.Now()
		for i, body := range probes {
			if i >= 3 && time.Since(began) > 600*time.Millisecond {
				break // at least 3 probes, more while they are cheap
			}
			t0 := time.Now()
			status, err := cs[0].do(b.base, http.MethodPost, "/v1/ingest", body, -1)
			lat := float64(time.Since(t0)) / 1e6
			after := pc.burst(500)
			out.timed("ingest_p50_ms", lat, (before+after)/2)
			before = after
			out.attempted++
			if err != nil || status != http.StatusOK {
				out.fail("ingest probe: status %d: %v", status, err)
			}
		}
	}
	return out, b.stop()
}

// topkReply is the part of a /v1/pathsim/topk body the oracle compares.
type topkReply struct {
	Query   struct{ ID int }
	K       int
	Epoch   int64
	Results []topkRow
}

type topkRow struct {
	ID    int
	Score float64
}

// checkTopK compares a reply with the oracle's answer bit for bit: ids,
// order and score bits. It returns "" or what differed.
func checkTopK(body []byte, id, k int, want []pathsim.Pair) string {
	var got topkReply
	if err := json.Unmarshal(body, &got); err != nil {
		return "undecodable body: " + err.Error()
	}
	if got.Query.ID != id || got.K != k || len(got.Results) != len(want) {
		return fmt.Sprintf("reply for id %d k %d with %d results, want id %d k %d with %d",
			got.Query.ID, got.K, len(got.Results), id, k, len(want))
	}
	for i, p := range want {
		if r := got.Results[i]; r.ID != p.ID || math.Float64bits(r.Score) != math.Float64bits(p.Score) {
			return fmt.Sprintf("rank %d is (%d, %v), oracle has (%d, %v)", i, r.ID, r.Score, p.ID, p.Score)
		}
	}
	return ""
}

// checkMixed is mixed_rw's oracle. Replies sampled during the run are
// exact at epoch 1 and must be well-formed later (concurrent ingests make
// the epoch-to-content map ambiguous). After the run the server's final
// state is compared exactly: every accepted batch applied to the oracle
// network in one naive step, indexes rebuilt cold, a key sample per path
// queried over HTTP.
func (w workload) checkMixed(out *roundOut, base string, reqs []request, applied []int32, or *cluster.Models, c *client) {
	for _, kb := range out.kept {
		out.attempted++
		u, err := url.Parse(reqs[kb.idx].ev.Path)
		if err != nil {
			out.fail("oracle: %v", err)
			continue
		}
		id, _ := strconv.Atoi(u.Query().Get("id"))
		var got topkReply
		if err := json.Unmarshal(kb.body, &got); err != nil || got.Query.ID != id || len(got.Results) > w.k {
			out.fail("oracle: malformed reply to %s (%v)", reqs[kb.idx].ev.Path, err)
			continue
		}
		if !slices.IsSortedFunc(got.Results, func(a, b topkRow) int { return cmp.Compare(b.Score, a.Score) }) {
			out.fail("oracle: reply to %s is not sorted by score", reqs[kb.idx].ev.Path)
		}
		if got.Epoch == 1 && u.Query().Get("path") == "" {
			if msg := checkTopK(kb.body, id, w.k, or.PathSim.TopK(id, w.k)); msg != "" {
				out.fail("oracle: key %d at epoch 1: %s", id, msg)
			}
		}
	}

	var deltas []ingest.Delta
	slices.Sort(applied)
	for _, idx := range applied {
		batch, err := decodeBatch(reqs[idx].ev.Body)
		if err != nil {
			out.fail("oracle: ingest body %d: %v", idx, err)
			return
		}
		deltas = append(deltas, batch...)
	}
	final := or.Corpus.Net.Clone()
	if _, err := ingest.Apply(final, deltas, ingest.Options{}); err != nil {
		out.fail("oracle: applying %d accepted deltas: %v", len(deltas), err)
		return
	}
	final.PathEngine().Reset() // rebuild every commuting matrix from the relations, nothing incremental
	dim := final.Count(dblp.TypeAuthor)
	for _, spec := range mixedPaths {
		path := cluster.PathAPVPA
		if spec != "" {
			var err error
			if path, err = final.ParseMetaPath(spec); err != nil {
				out.fail("oracle: %v", err)
				continue
			}
		}
		ix, err := pathsim.NewIndexE(final, path)
		if err != nil {
			out.fail("oracle: %v", err)
			continue
		}
		for j := 0; j < 16; j++ {
			out.attempted++
			id := j * dim / 16
			status, err := c.do(base, http.MethodGet, topkPath(id, w.k, spec), "", -1)
			if err != nil || status != http.StatusOK {
				out.fail("oracle: final-state query: status %d: %v", status, err)
			} else if msg := checkTopK(c.buf.Bytes(), id, w.k, ix.TopK(id, w.k)); msg != "" {
				out.fail("oracle: final state, path %q key %d: %s", spec, id, msg)
			}
		}
	}
}

// runOut is one workload run: every metric summarized over the windows
// (or rounds) of all its rounds.
type runOut struct {
	e2e, raw, layer   map[string]summary
	attempted, failed int
	notes             []string
	events            int // schedule length
}

// run measures the workload over rounds fresh servers. rec non-nil makes
// it a traced run (client and server-side spans recorded).
func (w workload) run(cfg config, rounds int, rec *recorder) (*runOut, error) {
	// The oracle's build doubles as the throw-away boot: the first build in
	// a process pays for page faults and heap growth that later ones do not.
	or := cluster.BuildModels(1, cluster.ModelSpec{Corpus: w.corpus(cfg.smoke)})
	d := time.Duration(cfg.seconds / float64(cfg.rounds) * float64(time.Second))
	warm, nprobe := 2000, 20
	rps := w.rps
	if cfg.smoke {
		warm, nprobe, rps = 100, 1, 4*rps // a server this small answers faster
	}
	res := &runOut{events: warm + int(float64(rps)*d.Seconds())}
	reqs, err := w.schedule(cfg.seed, or.Corpus, res.events)
	if err != nil {
		return nil, err
	}
	probes, err := ingestBodies(cfg.seed, or.Corpus, nprobe)
	if err != nil {
		return nil, err
	}

	e2e, raw, layer := values{}, values{}, values{}
	var last *roundOut
	for r := 0; r < rounds; r++ {
		out, err := w.round(cfg, d, reqs, warm, probes, or, rec)
		if err != nil {
			return nil, err
		}
		for _, m := range []struct{ dst, src values }{{e2e, out.e2e}, {raw, out.raw}, {layer, out.layer}} {
			for name, vals := range m.src {
				m.dst[name] = append(m.dst[name], vals...)
			}
		}
		res.attempted += out.attempted
		res.failed += out.failed
		res.notes = append(res.notes, out.notes...)
		last = out
	}
	res.e2e, res.raw, res.layer = summaries(e2e), summaries(raw), summaries(layer)
	if w.shards > 1 {
		w.checkUnsharded(cfg, last, reqs, res)
	}
	return res, nil
}

func summaries(v values) map[string]summary {
	out := make(map[string]summary, len(v))
	for name, vals := range v {
		out[name] = summarize(vals)
	}
	return out
}

// checkUnsharded replays the last round's sampled keys against an
// unsharded server of the same corpus: the sharded tier's reply must be
// the same bytes.
func (w workload) checkUnsharded(cfg config, last *roundOut, reqs []request, res *runOut) {
	opts := w.options(cfg.smoke)
	opts.Shards = 0
	ref := serve.New(opts)
	defer ref.Shutdown(context.Background())
	for _, kb := range last.kept {
		res.attempted++
		_, path, _ := w.wire(reqs[kb.idx])
		rw := httptest.NewRecorder()
		ref.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, path, nil))
		if !bytes.Equal(rw.Body.Bytes(), kb.body) {
			res.failed++
			res.notes = append(res.notes, fmt.Sprintf("sharded reply to %s differs from the unsharded server's", path))
		}
	}
}
