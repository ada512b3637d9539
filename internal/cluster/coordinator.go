// The scatter-gather coordinator: publishes one View per write once
// every shard has published, fans a View's PathSim reads out to every
// shard, and merges partial top-k answers under the same strict total
// order the single-index scan uses. It holds no model state of its own:
// the View it publishes says where a generation's models are.

package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hinet/internal/ingest"
	"hinet/internal/obs"
	"hinet/internal/pathsim"
)

// Coordinator routes queries across one partition's shards.
type Coordinator struct {
	part   Partition
	shards []*LocalShard
	spans  []string // "shard<i>": per-shard trace span names

	mu   sync.Mutex // serializes write fan-out and restarts
	view atomic.Pointer[View]

	scatters atomic.Uint64 // scatter-gather fan-outs issued
}

// View is one published generation of every shard: its epoch, the
// models the shards share (embedded: what ranking, clustering and
// rendering read, with no shard in between) and each shard's generation,
// held by pointer. Immutable; its reads cannot miss their generation.
type View struct {
	Epoch int64
	*Models
	c    *Coordinator
	gens []*generation // gens[i] is shard i's
}

// NewLocalCluster builds n in-process shards over the partition,
// materializes their first generation from seed, and returns the
// coordinator — the `hinet serve -shards N` construction path. The
// shards share one build memo, so every write fanned out through the
// coordinator builds its models once and all n shards hold the same
// *Models. The fourth parameter is ignored: bench/ still passes it a
// nil; the next [benchmark] PR drops that argument and this parameter
// together.
func NewLocalCluster(n int, part Partition, spec ModelSpec, _ any, seed int64) (*Coordinator, error) {
	if part.Shards() != n {
		return nil, fmt.Errorf("cluster: partition has %d ranges for %d shards", part.Shards(), n)
	}
	spec.SkipPathSim = true
	c := &Coordinator{part: part, shards: make([]*LocalShard, n), spans: make([]string, n)}
	memo := &builds{}
	for i := range c.shards {
		c.shards[i] = &LocalShard{id: i, part: part, spec: spec, memo: memo}
		c.spans[i] = fmt.Sprintf("shard%d", i)
	}
	if _, err := c.Rebuild(seed); err != nil {
		return nil, err
	}
	return c, nil
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Shard returns shard i (tests).
func (c *Coordinator) Shard(i int) *LocalShard { return c.shards[i] }

// View returns the published View: the newest generation every shard
// has published.
func (c *Coordinator) View() *View { return c.view.Load() }

// Epoch returns the cluster epoch: the published View's.
func (c *Coordinator) Epoch() int64 { return c.view.Load().Epoch }

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
// first error wins (client errors take priority, so a bad path is
// always reported as such) and closes the span; partial results are
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
		var ce *ClientError
		if err != nil && (first == nil || errors.As(err, &ce) && !errors.As(first, &ce)) {
			first = err
		}
	}
	if first != nil {
		tr.End(sp)
	}
	return sp, first
}

// Resolve makes a meta-path servable in v and reports whether every
// shard already held its range index of it. When some do not and build
// is set, the shards materialize theirs concurrently, on the caller's
// goroutine and its fan-out — the cold build of a path never runs
// inside a later query's scatter, where it would stall whoever
// dispatches kernels. Without build nothing is materialized: the answer
// says whether queries over the path would find it built.
func (v *View) Resolve(ctx context.Context, path string, build bool) (bool, error) {
	held := true
	for i, sh := range v.c.shards {
		ix, _, err := sh.held(v.gens[i], path)
		if err != nil {
			return false, err
		}
		held = held && ix != nil
	}
	if held || !build {
		return held, nil
	}
	tr := obs.FromContext(ctx)
	sp, err := v.c.scatter(tr, func(i int, sh *LocalShard) error {
		_, err := sh.rangeFor(ctx, v.gens[i], path)
		return err
	})
	if err == nil {
		tr.End(sp)
	}
	return false, err
}

// TopK scatter-gathers a top-k query: every shard scores its candidate
// range of the query's row, and the partials merge under the
// single-index order (pathsim.MergeTopK), yielding an answer
// bitwise-identical to a single-process index of v's generation.
func (v *View) TopK(ctx context.Context, path string, x, k int) ([]pathsim.Pair, error) {
	tr := obs.FromContext(ctx)
	partials := make([][]pathsim.Pair, len(v.gens))
	sp, err := v.c.scatter(tr, func(i int, sh *LocalShard) error {
		return sh.read(ctx, v.gens[i], path, func(ix *pathsim.Index) error {
			partials[i] = ix.TopK(x, k)
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

// BatchTopK is the batched scatter-gather: the whole query batch fans
// out to every shard (each answering all queries over its own slice, in
// parallel internally), then each query's partials merge.
func (v *View) BatchTopK(ctx context.Context, path string, xs []int, k int) ([][]pathsim.Pair, error) {
	tr := obs.FromContext(ctx)
	partials := make([][][]pathsim.Pair, len(v.gens))
	sp, err := v.c.scatter(tr, func(i int, sh *LocalShard) error {
		return sh.read(ctx, v.gens[i], path, func(ix *pathsim.Index) (err error) {
			partials[i], err = ix.BatchTopKCtx(ctx, xs, k)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	sp = tr.Next(sp, "merge")
	out := partials[0] // one shard's partials are the answers
	if len(v.gens) > 1 {
		out = make([][]pathsim.Pair, len(xs))
		parts := make([][]pathsim.Pair, len(v.gens))
		for q := range xs {
			for i := range v.gens {
				parts[i] = partials[i][q]
			}
			out[q] = pathsim.MergeTopK(parts, k, nil)
		}
	}
	tr.End(sp)
	return out, nil
}

// fanOut applies one write to every shard, shard 0 first: every shard
// applies it to the same state, so shard 0 is the validation gate — a
// rejected write changes nothing anywhere, and once shard 0 accepts,
// the rest cannot fail differently (in-process they receive the very
// models shard 0 built). The next View publishes only after every shard
// has published its new generation; until then readers hold the last.
func (c *Coordinator) fanOut(what string, op writeOp) (int64, ingest.Summary, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum ingest.Summary
	for i, sh := range c.shards {
		var err error
		if _, sum, err = sh.write(op); err != nil {
			if i > 0 {
				err = fmt.Errorf("cluster: shard %d diverged on %s accepted by shard 0: %w", i, what, err)
			}
			return 0, sum, err
		}
	}
	return c.publish(), sum, nil
}

// publish makes every shard's live generation the published View and
// returns its epoch. Callers hold mu.
func (c *Coordinator) publish() int64 {
	gens := make([]*generation, len(c.shards))
	for i, sh := range c.shards {
		gens[i] = sh.gen.Load()
	}
	c.view.Store(&View{Epoch: gens[0].epoch, Models: gens[0].models, c: c, gens: gens})
	return gens[0].epoch
}

// Ingest fans a delta batch out to every shard as one new generation,
// all-or-nothing: a batch shard 0 rejects changes nothing and is not
// logged.
func (c *Coordinator) Ingest(deltas []ingest.Delta, refreshModels bool) (int64, ingest.Summary, error) {
	return c.fanOut("ingest", writeOp{deltas: deltas, refresh: refreshModels})
}

// Rebuild fans a fresh-generation build from seed out to every shard.
func (c *Coordinator) Rebuild(seed int64) (int64, error) {
	epoch, _, err := c.fanOut("rebuild", writeOp{rebuild: true, rebuildSeed: seed})
	return epoch, err
}

// Restart replays shard i's write log alone, as a restarted shard
// process would, and publishes the View again at the same epoch with the
// replayed generation in it. A View taken before keeps the generation
// it holds.
func (c *Coordinator) Restart(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.shards[i].restart(); err != nil {
		return err
	}
	c.publish()
	return nil
}

// Stats returns every shard's stats, in shard order — the partition
// skew view (/v1/cluster/shards, hinet_shard_* metrics).
func (c *Coordinator) Stats() []ShardStats {
	out := make([]ShardStats, len(c.shards))
	for i, sh := range c.shards {
		out[i] = sh.Stats()
	}
	return out
}

// Skew summarizes the partition imbalance across shards: the ratio of
// the largest to the mean per-shard nnz (1.0 = perfectly balanced; 0
// when the cluster is empty).
func (c *Coordinator) Skew() float64 {
	total, maxNNZ := 0, 0
	for _, st := range c.Stats() {
		total += st.NNZ
		maxNNZ = max(maxNNZ, st.NNZ)
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(c.shards))
	return float64(maxNNZ) / mean
}
