// The coordinator: applies each write once — the models and every
// shard's range of the default path built side by side — and publishes
// one View per write; fans a View's PathSim reads out to every shard's
// range and merges the partial top-k answers under the same strict
// total order the single-index scan uses.

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
	"hinet/internal/pathsim"
)

// Coordinator routes queries across one partition's shards.
type Coordinator struct {
	spec   ModelSpec // SkipPathSim set: the cluster never materializes the similarity index
	shards []*LocalShard

	mu   sync.Mutex // serializes writes
	view atomic.Pointer[View]
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
// coordinator — what serve.New boots. The fourth parameter is ignored:
// bench/ still passes it a nil; the next [benchmark] PR drops that
// argument and this parameter together.
func NewLocalCluster(n int, part Partition, spec ModelSpec, _ any, seed int64) (*Coordinator, error) {
	if part.Shards() != n {
		return nil, fmt.Errorf("cluster: partition has %d ranges for %d shards", part.Shards(), n)
	}
	spec.SkipPathSim = true
	c := &Coordinator{spec: spec, shards: make([]*LocalShard, n)}
	for i := range c.shards {
		c.shards[i] = &LocalShard{id: i, part: part}
	}
	if _, err := c.Rebuild(seed); err != nil {
		return nil, err
	}
	return c, nil
}

// View returns the published View.
func (c *Coordinator) View() *View { return c.view.Load() }

// scatter runs fn against every shard concurrently and returns the
// first shard's error; partial results are the caller's to discard. The
// last shard runs on the calling goroutine, so a fan-out costs one
// goroutine fewer than it has shards, and a one-shard cluster runs fn
// inline.
func (c *Coordinator) scatter(fn func(i int, sh *LocalShard) error) error {
	last := len(c.shards) - 1
	if last == 0 {
		return fn(0, c.shards[0])
	}
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i := 0; i < last; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i, c.shards[i])
		}(i)
	}
	errs[last] = fn(last, c.shards[last])
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
	err = v.c.scatter(func(i int, sh *LocalShard) (err error) {
		rs[i], err = sh.cut(full)
		return err
	})
	if err != nil {
		return nil, err
	}
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
	partials := make([][]pathsim.Pair, len(rs))
	_ = v.c.scatter(func(i int, _ *LocalShard) error { // a range read cannot fail
		partials[i] = rs[i].TopK(x, k)
		return nil
	})
	return pathsim.MergeTopK(partials, k, nil), nil
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
// write, so it cuts in turn rather than through scatter.
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
