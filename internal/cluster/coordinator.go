// The scatter-gather coordinator: applies each write once — the models
// and every shard's range of the default path built side by side — and
// publishes one View per write; fans a View's PathSim reads out to every
// shard's range and merges the partial top-k answers under the same
// strict total order the single-index scan uses.

package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hinet/internal/eval"
	"hinet/internal/hin"
	"hinet/internal/ingest"
	"hinet/internal/obs"
	"hinet/internal/pathsim"
)

// Coordinator routes queries across one partition's shards.
type Coordinator struct {
	part   Partition
	spec   ModelSpec // SkipPathSim set: the cluster never materializes the similarity index
	shards []*LocalShard
	spans  []string // "shard<i>": per-shard trace span names

	mu       sync.Mutex // serializes writes
	view     atomic.Pointer[View]
	scatters atomic.Uint64 // scatter-gather fan-outs issued
}

// View is one published generation and the serving snapshot: what a
// request loads once and reads throughout. It holds its epoch, its
// models (embedded: what ranking, clustering and rendering read, with no
// shard in between) and every shard's range of each meta-path served
// from it. Immutable but for its memos (concurrent-safe, filled by the
// first reader that asks), which die with the View, so a write can
// never serve a stale-epoch index or score.
type View struct {
	Epoch     int64
	BuiltAt   time.Time     // when the write that published it began
	BuildTime time.Duration // how long that write took
	*Models
	// The default path's index size: its endpoint type's count, and
	// pathsim.Index.NNZ — the multiply-adds of scanning every row —
	// summed over the shards' ranges, which partition the candidates
	// exactly.
	IndexDim, IndexNNZ int

	c      *Coordinator
	def    []*pathsim.Index // def[i] is shard i's range of the default path, built with the write
	paths  sync.Map         // resolved path string → []*pathsim.Index, one range per shard
	npaths atomic.Int32

	nmiRankClus, nmiNetClus nmiMemo
}

// nmiMemo holds one clustering model's NMI against the ground-truth
// areas (RankClus clusters venues only).
type nmiMemo struct {
	once         sync.Once
	paper, venue float64
}

// NewLocalCluster builds n in-process shards over the partition,
// materializes their first generation from seed, and returns the
// coordinator — the `hinet serve -shards N` construction path. The
// fourth parameter is ignored: bench/ still passes it a nil; the next
// [benchmark] PR drops that argument and this parameter together.
func NewLocalCluster(n int, part Partition, spec ModelSpec, _ any, seed int64) (*Coordinator, error) {
	if part.Shards() != n {
		return nil, fmt.Errorf("cluster: partition has %d ranges for %d shards", part.Shards(), n)
	}
	spec.SkipPathSim = true
	c := &Coordinator{part: part, spec: spec, shards: make([]*LocalShard, n), spans: make([]string, n)}
	for i := range c.shards {
		c.shards[i] = &LocalShard{id: i, part: part}
		c.spans[i] = fmt.Sprintf("shard%d", i)
	}
	if _, err := c.Rebuild(seed); err != nil {
		return nil, err
	}
	return c, nil
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// View returns the published View.
func (c *Coordinator) View() *View { return c.view.Load() }

// Partition returns the fixed candidate partition.
func (c *Coordinator) Partition() Partition { return c.part }

// Scatters returns the number of fan-out reads issued.
func (c *Coordinator) Scatters() uint64 { return c.scatters.Load() }

// scatter runs fn against every shard concurrently under a "scatter"
// span of tr, adding one timed child span per shard after the gather
// (obs.Trace is not concurrent-safe). The last shard runs on the
// calling goroutine, so a fan-out costs one goroutine fewer than it has
// shards; a one-shard cluster has nothing to fan out and runs fn
// inline, with no gather bookkeeping. On success the scatter span is
// returned still open, for the caller to chain its merge span onto. The
// first shard's error wins and closes the span; partial results are
// discarded on error.
func (c *Coordinator) scatter(tr *obs.Trace, fn func(i int, sh *LocalShard) error) (int, error) {
	c.scatters.Add(1)
	sp := tr.Start("scatter")
	if len(c.shards) == 1 {
		start := time.Now()
		err := fn(0, c.shards[0])
		tr.AddTimed(sp, c.spans[0], time.Since(start))
		if err != nil {
			tr.End(sp)
		}
		return sp, err
	}
	durs := make([]time.Duration, len(c.shards))
	errs := make([]error, len(c.shards))
	run := func(i int) {
		start := time.Now()
		errs[i] = fn(i, c.shards[i])
		durs[i] = time.Since(start)
	}
	last := len(c.shards) - 1
	var wg sync.WaitGroup
	for i := 0; i < last; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(i)
		}(i)
	}
	run(last)
	wg.Wait()
	var first error
	for i, err := range errs {
		tr.AddTimed(sp, c.spans[i], durs[i])
		if first == nil {
			first = err
		}
	}
	if first != nil {
		tr.End(sp)
	}
	return sp, first
}

// Resolve makes a meta-path servable in v and reports whether v already
// held its ranges. When it does not and build is set, they are built
// now, on the caller's goroutine (View.build) — the cold build of a path
// never runs inside a later query's scatter, where it would stall
// whoever dispatches kernels. Without build nothing is materialized: the
// answer says whether queries over the path would find it built.
func (v *View) Resolve(ctx context.Context, path string, build bool) (bool, error) {
	rs, p, err := v.held(path)
	if rs != nil || err != nil || !build {
		return rs != nil, err
	}
	_, err = v.build(ctx, p)
	return false, err
}

// held returns v's memoized ranges of a path spec (empty = the default
// path, built with the write), or nil and the parsed path to build them
// from. The memo is keyed by resolved path string, so a spec already in
// that spelling — what the serving layer sends — costs one lookup.
func (v *View) held(spec string) ([]*pathsim.Index, hin.MetaPath, error) {
	if spec == "" {
		return v.def, nil, nil
	}
	if rs, ok := v.paths.Load(spec); ok {
		return rs.([]*pathsim.Index), nil, nil
	}
	path, err := v.Corpus.Net.ParseMetaPath(spec)
	if err == nil {
		err = pathsim.ValidatePath(path)
	}
	if err != nil {
		return nil, nil, &ClientError{Err: err}
	}
	if rs, ok := v.paths.Load(path.String()); ok {
		return rs.([]*pathsim.Index), nil, nil
	}
	return nil, path, nil
}

// build materializes every shard's range of path over v's network: the
// index over the whole endpoint type once — one diagonal — then each
// shard's cut of it, fanned out like a read. The ranges are memoized up
// to maxPathIndexes per View.
func (v *View) build(ctx context.Context, path hin.MetaPath) ([]*pathsim.Index, error) {
	full, err := pathsim.NewRangeIndexCtx(ctx, v.Corpus.Net, path, 0, v.Corpus.Net.Count(path[0]))
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, &ClientError{Err: err}
	}
	rs := make([]*pathsim.Index, len(v.c.shards))
	tr := obs.FromContext(ctx)
	sp, err := v.c.scatter(tr, func(i int, sh *LocalShard) (err error) {
		rs[i], err = sh.cut(full)
		return err
	})
	if err != nil {
		return nil, err
	}
	tr.End(sp)
	if v.npaths.Load() >= maxPathIndexes {
		return rs, nil
	}
	got, loaded := v.paths.LoadOrStore(path.String(), rs)
	if !loaded {
		v.npaths.Add(1)
	}
	return got.([]*pathsim.Index), nil
}

// ranges returns every shard's range of a path spec in v, memoized or
// built now.
func (v *View) ranges(ctx context.Context, spec string) ([]*pathsim.Index, error) {
	rs, path, err := v.held(spec)
	if rs != nil || err != nil {
		return rs, err
	}
	return v.build(ctx, path)
}

// TopK scatter-gathers a top-k query: every shard scores its candidate
// range of the query's row, and the partials merge under the
// single-index order (pathsim.MergeTopK), yielding an answer
// bitwise-identical to a single-process index of v's generation.
func (v *View) TopK(ctx context.Context, path string, x, k int) ([]pathsim.Pair, error) {
	rs, err := v.ranges(ctx, path)
	if err != nil {
		return nil, err
	}
	tr := obs.FromContext(ctx)
	partials := make([][]pathsim.Pair, len(rs))
	sp, err := v.c.scatter(tr, func(i int, sh *LocalShard) error {
		return sh.read(func() error {
			partials[i] = rs[i].TopK(x, k)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	sp = tr.Next(sp, "merge")
	merged := pathsim.MergeTopK(partials, k, nil)
	tr.End(sp)
	return merged, nil
}

// TopK is View().TopK, with the epoch it answered at.
func (c *Coordinator) TopK(ctx context.Context, path string, x, k int) (pairs []pathsim.Pair, epoch int64, err error) {
	v := c.view.Load()
	if pairs, err = v.TopK(ctx, path, x, k); err != nil {
		return nil, 0, err
	}
	return pairs, v.Epoch, nil
}

// defaultRanges builds every shard's range of the default path over net,
// cut from one index over the whole author type. It runs as one job of a
// write, so it cuts in turn rather than through scatter: a write is not
// a read fan-out, and hinet_cluster_scatters_total counts only those.
func (c *Coordinator) defaultRanges(net *hin.Network) ([]*pathsim.Index, error) {
	full, err := pathsim.NewRangeIndexCtx(context.Background(), net, PathAPVPA, 0, net.Count(PathAPVPA[0]))
	if err != nil {
		return nil, fmt.Errorf("cluster: default index: %w", err)
	}
	rs := make([]*pathsim.Index, len(c.shards))
	for i, sh := range c.shards {
		if rs[i], err = sh.cut(full); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// write builds and publishes one generation on top of the published
// View's models (none before the first rebuild): build makes the new
// models from them and runs, beside the model builds in the same
// fork–join, the default path's ranges (defaultRanges) and any job in
// beside — the failure tests' way in. Nothing is published unless all of
// it succeeds, and nothing of the superseded generation is kept beyond
// the Views that still hold it. It returns the View it published.
func (c *Coordinator) write(build func(prev *Models, beside ...func(*hin.Network) error) (*Models, ingest.Summary, error),
	beside ...func(*hin.Network) error) (*View, ingest.Summary, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	var prev *Models
	epoch := int64(1)
	if cur := c.view.Load(); cur != nil {
		prev, epoch = cur.Models, cur.Epoch+1
	}
	var def []*pathsim.Index
	m, sum, err := build(prev, append(beside, func(net *hin.Network) (err error) {
		def, err = c.defaultRanges(net)
		return err
	})...)
	if err != nil {
		return nil, sum, err
	}
	v := &View{Epoch: epoch, BuiltAt: start, Models: m, IndexDim: m.Corpus.Net.Count(PathAPVPA[0]), c: c, def: def}
	for _, r := range def {
		v.IndexNNZ += r.NNZ()
	}
	v.paths.Store(PathAPVPA.String(), def)
	v.npaths.Store(1)
	v.BuildTime = time.Since(start)
	c.view.Store(v)
	return v, sum, nil
}

// Ingest applies a delta batch as one new generation, all-or-nothing: a
// rejected batch changes nothing. It returns the View it published.
func (c *Coordinator) Ingest(deltas []ingest.Delta, refreshModels bool) (*View, ingest.Summary, error) {
	return c.write(func(prev *Models, beside ...func(*hin.Network) error) (*Models, ingest.Summary, error) {
		return ingestModels(prev, deltas, refreshModels, c.spec, beside...)
	})
}

// Rebuild builds a fresh generation from seed and returns the View it
// published.
func (c *Coordinator) Rebuild(seed int64) (*View, error) {
	v, _, err := c.write(func(_ *Models, beside ...func(*hin.Network) error) (*Models, ingest.Summary, error) {
		m, err := buildModels(seed, c.spec, beside...)
		return m, ingest.Summary{}, err
	})
	return v, err
}

// Stats returns every shard's stats in v, in shard order — the
// partition skew view (/v1/cluster/shards, hinet_shard_* metrics). The
// epoch and geometry are v's; the load counters are the shards' own.
func (v *View) Stats() []ShardStats {
	out := make([]ShardStats, len(v.def))
	for i, sh := range v.c.shards {
		def := v.def[i]
		out[i] = ShardStats{ID: sh.id, Epoch: v.Epoch, Lo: def.Lo(), Hi: def.Hi(), Rows: def.Rows(), NNZ: def.NNZ(),
			Inflight: sh.inflight.Load(), Queries: sh.queries.Load()}
	}
	return out
}

// Skew summarizes v's partition imbalance across shards: the ratio of
// the largest to the mean per-shard nnz (1.0 = perfectly balanced; 0
// when the index is empty).
func (v *View) Skew() float64 {
	maxNNZ := 0
	for _, r := range v.def {
		maxNNZ = max(maxNNZ, r.NNZ())
	}
	if v.IndexNNZ == 0 {
		return 0
	}
	mean := float64(v.IndexNNZ) / float64(len(v.def))
	return float64(maxNNZ) / mean
}

// RankClusNMI returns the RankClus venue clustering's NMI against the
// ground-truth areas. It depends only on the generation, so the first
// reader that asks computes it and v keeps it; no write does.
func (v *View) RankClusNMI() float64 {
	m := &v.nmiRankClus
	m.once.Do(func() { m.venue = nmiAligned(v.Corpus.VenueArea, v.RankClus.Assign) })
	return m.venue
}

// NetClusNMI returns the NetClus paper and venue clusterings' NMI
// against the ground-truth areas, memoized like RankClusNMI.
func (v *View) NetClusNMI() (paper, venue float64) {
	m := &v.nmiNetClus
	m.once.Do(func() {
		m.paper = nmiAligned(v.Corpus.PaperArea, v.NetClus.AssignCenter)
		m.venue = nmiAligned(v.Corpus.VenueArea, v.NetClus.AssignAttr(1))
	})
	return m.paper, m.venue
}

// nmiAligned scores the overlap of a ground-truth labeling and a
// cluster assignment. After an ingest that added objects, the
// carried-over model is shorter than the padded ground truth (and a
// refreshed model can be longer than an old generation's) — the overlap
// is the population both labelings cover.
func nmiAligned(truth, assign []int) float64 {
	n := min(len(truth), len(assign))
	return eval.NMI(truth[:n], assign[:n])
}
