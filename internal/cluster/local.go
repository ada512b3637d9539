// LocalShard: one in-process shard. It answers the similarity index
// over its candidate range, from the half-path factor of a network and
// model set built once per write and shared with its sibling shards (the
// build memo). Each write publishes a generation behind an atomic
// pointer, and the coordinator pins it in a View; the shard keeps no
// earlier one. Every write is appended to a replayable log over a
// checkpoint, so a restart can rebuild the exact current state alone —
// the recovery story a shard that cannot share would need, exercised by
// the race suite.

package cluster

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"hinet/internal/hin"
	"hinet/internal/ingest"
	"hinet/internal/pathsim"
)

// maxPathIndexes bounds a generation's memoized per-path range
// indexes: an adversarial stream of distinct paths cannot grow shard
// memory without bound (beyond the cap, indexes are rebuilt per
// request — correct, just uncached; the half-path factors behind them
// live in the network's meta-path engine, which has the matching
// maxEntries cap, so such a rebuild is one pass over a factor).
const maxPathIndexes = 64

// maxLogOps bounds the write log: once it holds this many entries the
// next write folds them into a checkpoint (see LocalShard.write).
const maxLogOps = 64

// generation is one published shard state. Immutable after publish
// except the ranges memo (concurrent-safe, append-only).
type generation struct {
	epoch  int64
	models *Models
	op     *writeOp       // the write that produced models
	def    *pathsim.Index // default-path range, built eagerly at publish

	ranges     sync.Map // path string → *pathsim.Index
	rangeCount atomic.Int32
}

// writeOp is one write, allocated once and shared by every shard that
// applies it: the entry of each shard's replayable log and, by pointer,
// the identity of the model state it produced. An entry is created on
// top of exactly one parent entry and replayed only in log order, so
// equal entries mean equal histories and, by determinism, equal bits.
type writeOp struct {
	rebuildSeed int64 // valid when rebuild is true
	rebuild     bool
	deltas      []ingest.Delta
	refresh     bool
}

// run executes the write against prev (which a rebuild ignores), with
// the beside jobs run on the new network next to the model builds.
func (op *writeOp) run(prev *Models, spec ModelSpec, beside ...func(*hin.Network) error) (*Models, ingest.Summary, error) {
	if op.rebuild {
		m, err := buildModels(op.rebuildSeed, spec, beside...)
		return m, ingest.Summary{}, err
	}
	return ingestModels(prev, op.deltas, op.refresh, spec, beside...)
}

// builds is the build memo the shards of one in-process cluster share:
// it remembers the last write and its models, so of N shards applying
// one write to the same parent state the first builds and the rest
// receive the same *Models. mu is held across the build (singleflight).
type builds struct {
	mu     sync.Mutex
	parent *writeOp // entry that produced the state op was applied to (nil: none)
	op     *writeOp
	models *Models
	sum    ingest.Summary
}

// apply returns the log entry and models for op applied to prev, the
// state parent produced, having run the beside jobs on the new network:
// next to the model builds for the shard that builds, inline for one
// that is handed its sibling's models. The batch is cloned once, into
// the shared entry. A failed write — a validation error, a beside job's
// error or panic — is not remembered.
func (b *builds) apply(parent *writeOp, prev *Models, op writeOp, spec ModelSpec, beside ...func(*hin.Network) error) (*writeOp, *Models, ingest.Summary, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if last := b.op; last != nil && b.parent == parent && last.rebuild == op.rebuild &&
		last.rebuildSeed == op.rebuildSeed && last.refresh == op.refresh && slices.Equal(last.deltas, op.deltas) {
		for _, job := range beside {
			if err := job(b.models.Corpus.Net); err != nil {
				return nil, nil, b.sum, err
			}
		}
		return last, b.models, b.sum, nil
	}
	m, sum, err := op.run(prev, spec, beside...)
	if err != nil {
		return nil, nil, sum, err
	}
	op.deltas = slices.Clone(op.deltas)
	b.parent, b.op, b.models, b.sum = parent, &op, m, sum
	return b.op, m, sum, nil
}

// LocalShard is one in-process shard of a NewLocalCluster.
type LocalShard struct {
	id   int
	part Partition
	spec ModelSpec // SkipPathSim set: a shard never materializes the similarity index
	memo *builds   // shared with the sibling shards

	mu  sync.Mutex // serializes writes, the log, and restart
	gen atomic.Pointer[generation]

	// The replayable state: a checkpoint — the models published at epoch
	// base, nil when the log opens with a rebuild, which needs none — and
	// the writes applied since (entries shared across shards), at most
	// maxLogOps of them.
	checkpoint *Models
	base       int64
	baseOps    []*writeOp

	inflight atomic.Int64
	queries  atomic.Uint64
}

// Epoch returns the shard's published epoch (0 before the first write).
func (sh *LocalShard) Epoch() int64 {
	if g := sh.gen.Load(); g != nil {
		return g.epoch
	}
	return 0
}

// boundsFor resolves the shard's owned candidate range for a path
// ending at the given endpoint type: the partitioned type uses the
// partition's bounds (last shard absorbing appended ids), any other
// type an even id split.
func (sh *LocalShard) boundsFor(endpoint hin.Type, dim int) (lo, hi int) {
	if string(endpoint) == sh.part.Of {
		return sh.part.rangeOf(sh.id, dim)
	}
	return evenRange(sh.id, sh.part.Shards(), dim)
}

// defaultRange returns the job that cuts the shard's range of the
// default index from a write's network into *def — what a generation
// needs besides its models, built beside them (Models.fit).
func (sh *LocalShard) defaultRange(def **pathsim.Index) func(*hin.Network) error {
	return func(net *hin.Network) (err error) {
		endpoint := PathAPVPA[len(PathAPVPA)-1]
		lo, hi := sh.boundsFor(endpoint, net.Count(endpoint))
		if *def, err = pathsim.NewRangeIndexCtx(context.Background(), net, PathAPVPA, lo, hi); err != nil {
			return fmt.Errorf("cluster: shard %d default index: %w", sh.id, err)
		}
		return nil
	}
}

// newGeneration wraps the publishable state around a model set and the
// shard's range of the default index over its network.
func newGeneration(m *Models, op *writeOp, def *pathsim.Index, epoch int64) *generation {
	g := &generation{epoch: epoch, models: m, op: op, def: def}
	g.ranges.Store(PathAPVPA.String(), def)
	g.rangeCount.Store(1)
	return g
}

// write applies op on top of the live generation (none before the
// first rebuild) and publishes the result. The log restarts at a
// rebuild, whose state depends on no history, and when it is full: the
// models of the generation this write supersedes — in hand, nothing is
// rebuilt — become the checkpoint the log replays from (checkpointOf),
// so between rebuilds a shard keeps at most maxLogOps batches and one
// model set, without its products, beyond the generations it serves.
// The shard's range of the default index is built beside the models
// (defaultRange), and so is any job in beside — the failure tests' way
// in; nothing is logged or published unless all of it succeeds.
func (sh *LocalShard) write(op writeOp, beside ...func(*hin.Network) error) (int64, ingest.Summary, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.gen.Load()
	var parent *writeOp
	var prev *Models
	epoch := int64(1)
	if cur != nil {
		parent, prev, epoch = cur.op, cur.models, cur.epoch+1
	} else if !op.rebuild {
		return 0, ingest.Summary{}, fmt.Errorf("cluster: shard %d has no generation to ingest into", sh.id)
	}
	var def *pathsim.Index
	entry, m, sum, err := sh.memo.apply(parent, prev, op, sh.spec, append(beside, sh.defaultRange(&def))...)
	if err != nil {
		return 0, sum, err
	}
	if op.rebuild {
		sh.checkpoint, sh.base, sh.baseOps = nil, epoch-1, nil
	} else if len(sh.baseOps) >= maxLogOps {
		sh.checkpoint, sh.base, sh.baseOps = checkpointOf(prev), epoch-1, nil
	}
	sh.baseOps = append(sh.baseOps, entry)
	sh.gen.Store(newGeneration(m, entry, def, epoch))
	return epoch, sum, nil
}

// checkpointOf returns m as a replay base: the same models over a
// copy-on-write clone of the network whose meta-path engine is empty.
// A checkpoint therefore pins its generation's relations and score
// vectors but none of its materialized products; a replay recomputes
// those cold, which yields the same bits as the patches the live chain
// took.
func checkpointOf(m *Models) *Models {
	net := m.Corpus.Net.Clone()
	net.PathEngine().Reset()
	cp := *m
	cp.Corpus = m.Corpus.WithNetwork(net)
	return &cp
}

// restart models a shard process restart: the write log replays over
// its checkpoint and the rebuilt state publishes atomically. Because
// every model build is deterministic, the recovered generation is
// bit-identical to the live one, at the same epoch; a View already
// holding the live one keeps it. The replay never consults the build
// memo — recovering alone is the point — so the shard holds a private
// model set until the next write.
func (sh *LocalShard) restart() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.baseOps) == 0 {
		return nil
	}
	epoch := sh.base
	var g *generation
	m := sh.checkpoint
	for _, op := range sh.baseOps {
		var def *pathsim.Index
		var err error
		if m, _, err = op.run(m, sh.spec, sh.defaultRange(&def)); err != nil {
			return fmt.Errorf("cluster: shard %d replay diverged: %w", sh.id, err)
		}
		epoch++
		g = newGeneration(m, op, def, epoch)
	}
	sh.gen.Store(g)
	return nil
}

// held returns g's memoized range index for a path spec (empty = the
// eagerly built default range), or nil and the parsed path to build it
// from. The memo is keyed by resolved path string, so a spec already in
// that spelling — what the serving layer sends — costs one lookup.
func (sh *LocalShard) held(g *generation, spec string) (*pathsim.Index, hin.MetaPath, error) {
	if spec == "" {
		return g.def, nil, nil
	}
	if v, ok := g.ranges.Load(spec); ok {
		return v.(*pathsim.Index), nil, nil
	}
	path, err := g.models.Corpus.Net.ParseMetaPath(spec)
	if err == nil {
		err = pathsim.ValidatePath(path)
	}
	if err != nil {
		return nil, nil, &ClientError{Err: err}
	}
	if v, ok := g.ranges.Load(path.String()); ok {
		return v.(*pathsim.Index), nil, nil
	}
	return nil, path, nil
}

// build materializes the shard's range index of path over g's network
// and memoizes it, up to maxPathIndexes per generation. The memo dies
// with the generation, so a write can never serve a stale-epoch index.
func (sh *LocalShard) build(ctx context.Context, g *generation, path hin.MetaPath) (*pathsim.Index, error) {
	net := g.models.Corpus.Net
	endpoint := path[len(path)-1]
	lo, hi := sh.boundsFor(endpoint, net.Count(endpoint))
	ix, err := pathsim.NewRangeIndexCtx(ctx, net, path, lo, hi)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, &ClientError{Err: err}
	}
	if g.rangeCount.Load() >= maxPathIndexes {
		return ix, nil
	}
	v, loaded := g.ranges.LoadOrStore(path.String(), ix)
	if !loaded {
		g.rangeCount.Add(1)
	}
	return v.(*pathsim.Index), nil
}

// rangeFor resolves a path spec to the shard's range index over g,
// memoized or built now.
func (sh *LocalShard) rangeFor(ctx context.Context, g *generation, spec string) (*pathsim.Index, error) {
	ix, path, err := sh.held(g, spec)
	if ix != nil || err != nil {
		return ix, err
	}
	return sh.build(ctx, g, path)
}

// read counts one PathSim read of g in and out of the shard's load
// counters and runs fn on the shard's range index of path in g.
func (sh *LocalShard) read(ctx context.Context, g *generation, path string, fn func(*pathsim.Index) error) error {
	sh.inflight.Add(1)
	defer sh.inflight.Add(-1)
	sh.queries.Add(1)
	ix, err := sh.rangeFor(ctx, g, path)
	if err != nil {
		return err
	}
	return fn(ix)
}

// Models returns the live generation's model set (nil before the first
// write).
func (sh *LocalShard) Models() *Models {
	if g := sh.gen.Load(); g != nil {
		return g.models
	}
	return nil
}

// Stats reports the shard's partition geometry and load counters.
func (sh *LocalShard) Stats() ShardStats {
	st := ShardStats{
		ID:       sh.id,
		Inflight: sh.inflight.Load(),
		Queries:  sh.queries.Load(),
	}
	if g := sh.gen.Load(); g != nil {
		st.Epoch = g.epoch
		st.Lo, st.Hi = g.def.Lo(), g.def.Hi()
		st.Rows = g.def.Rows()
		st.NNZ = g.def.NNZ()
	}
	return st
}
