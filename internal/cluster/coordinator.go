// The coordinator: applies each write once — the models and every
// shard's range of the default path built side by side — and publishes
// one View per write. A View resolves a meta-path spec to its Ranges
// once; the Ranges fan a PathSim read out to every shard's range and
// merge the partial top-k answers under the same strict total order the
// single-index scan uses.

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
	def    *Ranges    // the default path's, built with the write
	paths  sync.Map   // path spelling → *Ranges
	memoMu sync.Mutex // serializes memo stores (reads are lock-free)

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

// scatter runs fn(i) for every i in [0, n) concurrently — one per
// shard — and returns the first error by index; partial results are the
// caller's to discard. The last runs on the calling goroutine, so a
// fan-out costs one goroutine fewer than it has shards, and a one-shard
// cluster runs fn inline.
func scatter(n int, fn func(i int) error) error {
	last := n - 1
	if last == 0 {
		return fn(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < last; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	errs[last] = fn(last)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Ranges is one meta-path as a View serves it: its canonical spelling
// and every shard's candidate range of its index, in shard order. It is
// what View.Resolve hands back, and it answers the path's top-k reads
// with no further lookup.
type Ranges struct {
	Key string // the path's canonical spelling (hin.MetaPath.String); read-only
	rs  []*pathsim.Index
}

// Endpoint returns the path's endpoint type: what its queries and its
// candidates are objects of.
func (r *Ranges) Endpoint() hin.Type { return r.rs[0].Path[0] }

// Dim returns the endpoint type's object count: the valid query ids
// are [0, Dim).
func (r *Ranges) Dim() int { return r.rs[0].Dim() }

// TopK scatter-gathers a top-k query: every shard scores its candidate
// range of x's row, and the partials merge under the single-index order
// (pathsim.MergeTopK), yielding an answer bitwise-identical to a
// single-process index of the path. An x outside [0, Dim) has none.
func (r *Ranges) TopK(x, k int) []pathsim.Pair {
	partials := make([][]pathsim.Pair, len(r.rs))
	_ = scatter(len(r.rs), func(i int) error { // a range read cannot fail
		partials[i] = r.rs[i].TopK(x, k)
		return nil
	})
	return pathsim.MergeTopK(partials, k, nil)
}

// Resolve is the one reader of a path spec: it parses and validates
// spec (empty = the default path, built with the write) and returns v's
// ranges of it, and whether v already held them. When v does not and
// build is set, they are built now, on the caller's goroutine — the cold
// build of a path never runs inside a query's scatter, where it would
// stall whoever dispatches kernels. Without build nothing is
// materialized, and a path v does not hold comes back nil. An error is
// the spec's (it names no symmetric path of v's schema) unless ctx is
// done.
//
// The memo is keyed by spelling: the canonical one, and each other
// spelling a held path was asked in, so a spelling asked before costs
// one lookup and no parse. What it pins — each key, each held path's
// diagonal and ranges — is charged to the network's meta-path engine,
// the one byte account of the generation (metapath.Engine.Charge), and
// a path that does not fit is built once per request, for that request
// alone. A path whose products could exceed the budget is refused: an
// error, like a malformed spec.
func (v *View) Resolve(ctx context.Context, spec string, build bool) (r *Ranges, held bool, err error) {
	if spec == "" {
		return v.def, true, nil
	}
	if got, ok := v.paths.Load(spec); ok {
		return got.(*Ranges), true, nil
	}
	path, err := v.Corpus.Net.ParseMetaPath(spec)
	if err == nil {
		err = pathsim.ValidatePath(path)
	}
	if err != nil {
		return nil, false, err
	}
	key := path.String()
	got, held := v.paths.Load(key)
	switch {
	case held:
		r = got.(*Ranges)
	case !build:
		return nil, false, nil
	default:
		if r, err = v.build(ctx, path, key); err != nil {
			return nil, false, err
		}
	}
	// Another spelling is memoized only beside its canonical key: alone
	// it would pin ranges the account does not hold.
	if got, ok := v.paths.Load(key); spec != key && ok && got == r {
		r = v.memo(spec, r, 0)
	}
	return r, held, nil
}

// memoOverhead is what a memo key costs beside its spelling: its
// sync.Map node, or a built path's Ranges and index structs (one a
// shard, plus the Ranges).
const memoOverhead = 128

// memo stores r under the spelling name if the engine's account takes
// name and n more bytes, and returns what name then maps to: r, or the
// ranges a concurrent request stored first.
func (v *View) memo(name string, r *Ranges, n int64) *Ranges {
	v.memoMu.Lock()
	defer v.memoMu.Unlock()
	if got, ok := v.paths.Load(name); ok {
		return got.(*Ranges)
	}
	path := make([]string, len(r.rs[0].Path))
	for i, t := range r.rs[0].Path {
		path[i] = string(t)
	}
	if v.Corpus.Net.PathEngine().Charge(path, int64(len(name))+memoOverhead+n) {
		v.paths.Store(name, r)
	}
	return r
}

// memoBuilt stores a built path's ranges under its canonical key,
// charging what they pin beside the engine's factor: the diagonal and
// an index struct a shard.
func (v *View) memoBuilt(r *Ranges) *Ranges {
	return v.memo(r.Key, r, 8*int64(r.Dim())+memoOverhead*int64(len(r.rs)))
}

// build materializes every shard's range of path over v's network: the
// index over the whole endpoint type once — one diagonal — then each
// shard's cut of it, fanned out like a read. The ranges are memoized
// under key if the account takes them.
func (v *View) build(ctx context.Context, path hin.MetaPath, key string) (*Ranges, error) {
	full, err := pathsim.NewRangeIndexCtx(ctx, v.Corpus.Net, path, 0, v.Corpus.Net.Count(path[0]))
	if err != nil {
		return nil, err
	}
	r := &Ranges{Key: key, rs: make([]*pathsim.Index, len(v.c.shards))}
	err = scatter(len(r.rs), func(i int) (err error) {
		r.rs[i], err = v.c.shards[i].cut(full)
		return err
	})
	if err != nil {
		return nil, err
	}
	return v.memoBuilt(r), nil
}

// TopK answers a top-k query over the published View: Resolve, building
// the path if it must, then the ranges' TopK. It returns the epoch it
// answered at.
func (c *Coordinator) TopK(ctx context.Context, path string, x, k int) (pairs []pathsim.Pair, epoch int64, err error) {
	v := c.view.Load()
	r, _, err := v.Resolve(ctx, path, true)
	if err != nil {
		return nil, 0, err
	}
	return r.TopK(x, k), v.Epoch, nil
}

// defaultRanges builds every shard's range of the default path over net,
// cut from one index over the whole author type. It runs as one job of a
// write, so it cuts in turn rather than through scatter.
func (c *Coordinator) defaultRanges(net *hin.Network) (*Ranges, error) {
	full, err := pathsim.NewRangeIndexCtx(context.Background(), net, PathAPVPA, 0, net.Count(PathAPVPA[0]))
	if err != nil {
		return nil, fmt.Errorf("cluster: default index: %w", err)
	}
	r := &Ranges{Key: PathAPVPA.String(), rs: make([]*pathsim.Index, len(c.shards))}
	for i, sh := range c.shards {
		if r.rs[i], err = sh.cut(full); err != nil {
			return nil, err
		}
	}
	return r, nil
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
	var def *Ranges
	m, sum, err := build(prev, append(beside, func(net *hin.Network) (err error) {
		def, err = c.defaultRanges(net)
		return err
	})...)
	if err != nil {
		return nil, sum, err
	}
	v := &View{Epoch: epoch, BuiltAt: start, Models: m, IndexDim: m.Corpus.Net.Count(PathAPVPA[0]), c: c, def: def}
	for _, r := range def.rs {
		v.IndexNNZ += r.NNZ()
	}
	v.memoBuilt(def)
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
