// The scatter-gather coordinator: fans PathSim queries out to every
// shard, merges partial top-k answers under the same strict total order
// the single-index scan uses, and serializes write fan-out so the
// cluster epoch advances only when every shard has published. The
// coordinator holds no model state of its own — it fans out, merges and
// says where a generation's models are (Models) — which is what keeps it
// transport-agnostic.

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
	shards []Shard
	spans  []string // "shard<i>": per-shard trace span names
	models func(epoch int64) (*Models, error)

	mu    sync.Mutex   // serializes write fan-out
	epoch atomic.Int64 // min over shard epochs, advanced after all publish

	scatters atomic.Uint64 // scatter-gather fan-outs issued
}

// NewCoordinator wires a coordinator over pre-built shards; models
// resolves the model set the shards serve at an epoch (Models). The
// coordinator's epoch starts at the minimum shard epoch (0 for empty
// shards; call Rebuild to materialize the first generation).
func NewCoordinator(shards []Shard, part Partition, models func(epoch int64) (*Models, error)) *Coordinator {
	if len(shards) == 0 {
		panic("cluster: coordinator needs at least one shard")
	}
	c := &Coordinator{part: part, shards: shards, spans: make([]string, len(shards)), models: models}
	for i := range c.spans {
		c.spans[i] = fmt.Sprintf("shard%d", i)
	}
	minEp := shards[0].Epoch()
	for _, sh := range shards[1:] {
		minEp = min(minEp, sh.Epoch())
	}
	c.epoch.Store(minEp)
	return c
}

// NewLocalCluster builds n in-process shards over the partition,
// materializes their first generation from seed, and returns the
// coordinator — the `hinet serve -shards N` construction path. The
// shards share one build memo, so every write fanned out through the
// coordinator builds its models once and all n shards hold the same
// *Models — which the coordinator hands out as shard 0's. The fourth
// parameter is ignored: bench/ still passes it a nil; the next
// [benchmark] PR drops that argument and this parameter together.
func NewLocalCluster(n int, part Partition, spec ModelSpec, _ any, seed int64) (*Coordinator, error) {
	if part.Shards() != n {
		return nil, fmt.Errorf("cluster: partition has %d ranges for %d shards", part.Shards(), n)
	}
	shards := make([]Shard, n)
	memo := &builds{}
	for i := range shards {
		sh := NewLocalShard(i, part, spec)
		sh.memo = memo
		shards[i] = sh
	}
	c := NewCoordinator(shards, part, shards[0].(*LocalShard).modelsAt)
	if _, err := c.Rebuild(seed); err != nil {
		return nil, err
	}
	return c, nil
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Shard returns shard i (tests and the restart harness).
func (c *Coordinator) Shard(i int) Shard { return c.shards[i] }

// Epoch returns the cluster epoch: the highest generation every shard
// has published.
func (c *Coordinator) Epoch() int64 { return c.epoch.Load() }

// Models returns the generation the shards serve at epoch — what
// ranking, clustering and rendering read, with no shard in between. An
// epoch no longer (or not yet) retained is an EpochError.
func (c *Coordinator) Models(epoch int64) (*Models, error) { return c.models(epoch) }

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
func (c *Coordinator) scatter(tr *obs.Trace, fn func(i int, sh Shard) error) (int, error) {
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

// ResolveAt makes a meta-path servable at a fixed epoch and reports
// whether every shard already held its range index of it. When some do
// not and build is set, the shards materialize theirs concurrently, on
// the caller's goroutine and its fan-out — the cold build of a path
// never runs inside a later query's scatter, where it would stall
// whoever dispatches kernels. Without build nothing is materialized:
// the answer says whether queries over the path would find it built.
func (c *Coordinator) ResolveAt(ctx context.Context, epoch int64, path string, build bool) (bool, error) {
	held := true
	for _, sh := range c.shards {
		h, err := sh.Resolve(ctx, epoch, path, false)
		if err != nil {
			return false, err
		}
		held = held && h
	}
	if held || !build {
		return held, nil
	}
	tr := obs.FromContext(ctx)
	sp, err := c.scatter(tr, func(_ int, sh Shard) error {
		_, err := sh.Resolve(ctx, epoch, path, true)
		return err
	})
	if err == nil {
		tr.End(sp)
	}
	return false, err
}

// TopKAt scatter-gathers a top-k query at a fixed epoch: every shard
// scores its candidate range of the query's row, and the partials merge
// under the single-index order (pathsim.MergeTopK), yielding an answer
// bitwise-identical to a single-process index at that epoch.
func (c *Coordinator) TopKAt(ctx context.Context, epoch int64, path string, x, k int) ([]pathsim.Pair, error) {
	tr := obs.FromContext(ctx)
	partials := make([][]pathsim.Pair, len(c.shards))
	sp, err := c.scatter(tr, func(i int, sh Shard) error {
		var err error
		partials[i], err = sh.TopK(ctx, epoch, path, x, k)
		return err
	})
	if err != nil {
		return nil, err
	}
	sp = tr.Next(sp, "merge")
	merged := pathsim.MergeTopK(partials, k, nil)
	tr.End(sp)
	return merged, nil
}

// TopK is TopKAt at the current cluster epoch, retried if writes
// advance the cluster past it mid-flight.
func (c *Coordinator) TopK(ctx context.Context, path string, x, k int) (pairs []pathsim.Pair, epoch int64, err error) {
	err = RetryEvicted(c.epoch.Load(), c.epoch.Load, func(at int64) (err error) {
		epoch = at
		pairs, err = c.TopKAt(ctx, at, path, x, k)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return pairs, epoch, nil
}

// BatchTopKAt is the batched scatter-gather: the whole query batch
// fans out to every shard (each answering all queries over its own
// slice, in parallel internally), then each query's partials merge.
func (c *Coordinator) BatchTopKAt(ctx context.Context, epoch int64, path string, xs []int, k int) ([][]pathsim.Pair, error) {
	tr := obs.FromContext(ctx)
	partials := make([][][]pathsim.Pair, len(c.shards))
	sp, err := c.scatter(tr, func(i int, sh Shard) error {
		var err error
		partials[i], err = sh.BatchTopK(ctx, epoch, path, xs, k)
		return err
	})
	if err != nil {
		return nil, err
	}
	sp = tr.Next(sp, "merge")
	out := partials[0] // one shard's partials are the answers
	if len(c.shards) > 1 {
		out = make([][]pathsim.Pair, len(xs))
		parts := make([][]pathsim.Pair, len(c.shards))
		for q := range xs {
			for i := range c.shards {
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
// models shard 0 built). The cluster epoch advances only after every
// shard has published the new generation; reads at the previous epoch
// keep answering from retained generations throughout the window.
func (c *Coordinator) fanOut(what string, write func(Shard) (int64, error)) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var minEp int64
	for i, sh := range c.shards {
		ep, err := write(sh)
		if err != nil {
			if i > 0 {
				err = fmt.Errorf("cluster: shard %d diverged on %s accepted by shard 0: %w", sh.ID(), what, err)
			}
			return 0, err
		}
		if i == 0 || ep < minEp {
			minEp = ep
		}
	}
	c.epoch.Store(minEp)
	return minEp, nil
}

// Ingest fans a delta batch out to every shard as one new generation.
func (c *Coordinator) Ingest(deltas []ingest.Delta, refreshModels bool) (int64, ingest.Summary, error) {
	var sum ingest.Summary
	epoch, err := c.fanOut("ingest", func(sh Shard) (ep int64, err error) {
		ep, sum, err = sh.Ingest(deltas, refreshModels)
		return ep, err
	})
	return epoch, sum, err
}

// Rebuild fans a fresh-generation build from seed out to every shard.
func (c *Coordinator) Rebuild(seed int64) (int64, error) {
	return c.fanOut("rebuild", func(sh Shard) (int64, error) { return sh.Rebuild(seed) })
}

// Trim releases, on every shard, the generations older than epoch: the
// caller has stopped handing older epochs to new readers.
func (c *Coordinator) Trim(epoch int64) {
	for _, sh := range c.shards {
		sh.Trim(epoch)
	}
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
