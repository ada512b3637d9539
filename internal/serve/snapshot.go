// Snapshot store: the offline half of the serving subsystem. A
// Snapshot is one immutable generation of model artifacts — ranking
// vectors, cluster models, and a prebuilt PathSim index — materialized
// from a single corpus build. The Store owns the live snapshot behind
// an atomic pointer: queries read it wait-free, rebuilds construct a
// whole new generation off to the side and swap it in atomically, so a
// rebuild never blocks or corrupts in-flight queries. Each generation
// carries a monotonically increasing epoch; the result cache keys on it,
// so a swap implicitly invalidates every cached answer.

package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"hinet/internal/cluster"
	"hinet/internal/dblp"
	"hinet/internal/hin"
	"hinet/internal/ingest"
	"hinet/internal/metapath"
	"hinet/internal/obs"
	"hinet/internal/pathsim"
)

// Meta paths materialized at snapshot build time: APVPA (shared-venue
// peers, the PathSim index) and APA (co-authorship, the square graph
// PageRank and HITS run on). These alias internal/cluster's: the model
// recipe itself lives there (cluster.BuildModels / cluster.IngestModels),
// and a snapshot is a thin wrapper around one of its generations.
var (
	pathAPVPA = cluster.PathAPVPA
	pathAPA   = cluster.PathAPA
)

// Snapshot is one immutable generation of serving artifacts. Nothing
// in it is mutated after Rebuild returns; handlers and the batcher may
// read it from any goroutine without locking.
type Snapshot struct {
	Epoch     int64         // generation counter, starts at 1
	BuiltAt   time.Time     // wall-clock time of the build
	BuildTime time.Duration // how long materialization took

	// The generation's artifacts: Seed, Corpus, PageRank, HITS, RankClus,
	// NetClus. On a sharded server, the very pointer every shard holds.
	*cluster.Models
	PathSim DefaultIndex // prebuilt APVPA similarity index (shadows Models.PathSim)

	// paths memoizes pathsim indexes built on demand for arbitrary
	// path= queries, keyed by resolved path string, holding at most
	// maxPathIndexes entries (beyond that, indexes are rebuilt per
	// request — correct, just uncached — so an adversarial stream of
	// distinct paths cannot grow memory without bound; the engine's own
	// cache has the matching maxEntries cap). The commuting matrices
	// behind them live in the network's meta-path engine, so an index
	// build after the first for a given path is just a diagonal
	// extraction. Dies with the snapshot, so a rebuild can never serve
	// a stale-epoch index.
	paths     sync.Map
	pathCount atomic.Int32

	// The clustering-quality scores /v1/clusters reports (eval.NMI over
	// every venue, and for NetClus every paper) depend only on the
	// generation, so each algorithm's are computed by the first request
	// that asks and kept.
	nmiRankClus, nmiNetClus nmiMemo
}

// nmiMemo holds one clustering model's NMI against the ground-truth
// areas (RankClus clusters venues only).
type nmiMemo struct {
	once         sync.Once
	paper, venue float64
}

// maxPathIndexes bounds Snapshot.paths (see its comment).
const maxPathIndexes = 64

// DefaultIndex is a snapshot's view of the default-path (APVPA)
// similarity index. Unsharded, Index is the full prebuilt index. On a
// sharded server the shards own it as column slices and Index is nil;
// only its size is kept — dim is the endpoint type's count, nnz the sum
// of the slices, which partition the columns exactly — so Dim and NNZ
// read the same in both modes (/v1/stats, /metrics, the CLI banner).
type DefaultIndex struct {
	*pathsim.Index
	dim, nnz int
}

// Dim returns the number of objects the index covers.
func (d DefaultIndex) Dim() int { return d.dim }

// NNZ returns the stored nonzeros of the index, across all shards.
func (d DefaultIndex) NNZ() int { return d.nnz }

// errNoSnapshot is returned by Ingest before the first Rebuild — the
// one ingest failure that is the server's state, not the client's
// batch (it maps to 503, not 400).
var errNoSnapshot = errors.New("serve: no snapshot to ingest into")

// Engine returns the snapshot's meta-path engine (the planner and
// materialization cache of the snapshot's network).
func (s *Snapshot) Engine() *metapath.Engine { return s.Corpus.Net.PathEngine() }

// PathIndex resolves a client path spec (e.g. "A-P-A"; empty means the
// prebuilt APVPA index) into a PathSim index over this snapshot,
// building and memoizing it on first use. Errors are client errors —
// unparseable specs, unknown types, schema-less hops, asymmetric paths
// — and map to HTTP 400. A trace carried by ctx (obs.WithTrace) has
// its current span annotated with how the index was resolved:
// "prebuilt", "cached", or "built".
func (s *Snapshot) PathIndex(ctx context.Context, spec string) (*pathsim.Index, error) {
	tr := obs.FromContext(ctx)
	if spec == "" {
		tr.Note("prebuilt")
		return s.PathSim.Index, nil
	}
	path, err := s.Corpus.Net.ParseMetaPath(spec)
	if err != nil {
		return nil, err
	}
	key := path.String()
	if v, ok := s.paths.Load(key); ok {
		tr.Note("cached")
		return v.(*pathsim.Index), nil
	}
	// NewIndexCtx validates symmetry and length (errors go to the client
	// verbatim) and threads ctx into the materialization, so a dead
	// caller stops the product chain; a cancelled build is not cached.
	ix, err := pathsim.NewIndexCtx(ctx, s.Corpus.Net, path)
	if err != nil {
		return nil, err
	}
	tr.Note("built")
	if s.pathCount.Load() >= maxPathIndexes {
		return ix, nil
	}
	v, loaded := s.paths.LoadOrStore(key, ix)
	if !loaded {
		s.pathCount.Add(1)
	}
	return v.(*pathsim.Index), nil
}

// PathCached resolves spec only against already-materialized indexes
// — the default path (prebuilt here, or held as slices by the shards)
// or an entry of the memo map. This is the brownout resolution path: a
// degraded server starts no materializations and answers from the
// result cache alone, so it needs the path, not an index; anything not
// already in memory reports false (and the caller sheds).
func (s *Snapshot) PathCached(spec string) (hin.MetaPath, bool) {
	if spec == "" {
		return pathAPVPA, true
	}
	path, err := s.Corpus.Net.ParseMetaPath(spec)
	if err != nil {
		return nil, false
	}
	key := path.String()
	_, ok := s.paths.Load(key)
	return path, ok || key == pathAPVPA.String()
}

// ModelConfig controls what a snapshot materializes.
type ModelConfig struct {
	Corpus   dblp.Config // corpus size/separability (zero value = library defaults)
	K        int         // cluster count for RankClus/NetClus (0 = number of corpus areas)
	Restarts int         // random restarts per clustering model (0 = 1)
}

// Store holds the live snapshot and serializes rebuilds.
type Store struct {
	cfg   ModelConfig
	cur   atomic.Pointer[Snapshot]
	epoch atomic.Int64
	mu    sync.Mutex // one rebuild at a time
}

// NewStore returns an empty store; call Rebuild to materialize the
// first snapshot.
func NewStore(cfg ModelConfig) *Store { return &Store{cfg: cfg} }

// Current returns the live snapshot, or nil before the first Rebuild.
func (s *Store) Current() *Snapshot { return s.cur.Load() }

// spec translates the store's model configuration into the shared
// build-recipe spec (internal/cluster).
func (s *Store) spec() cluster.ModelSpec {
	return cluster.ModelSpec{Corpus: s.cfg.Corpus, K: s.cfg.K, Restarts: s.cfg.Restarts}
}

// publish wraps a generation as the next snapshot and swaps it in.
// shardNNZ is the default index's size when m does not carry one (a
// sharded tier's generations). Callers hold mu.
func (s *Store) publish(m *cluster.Models, shardNNZ int, start time.Time) *Snapshot {
	snap := &Snapshot{BuiltAt: start, Models: m}
	snap.PathSim = DefaultIndex{Index: m.PathSim, dim: m.Corpus.Net.Count(pathAPVPA[0]), nnz: shardNNZ}
	if m.PathSim != nil {
		snap.PathSim.nnz = m.PathSim.NNZ()
		// Register the prebuilt index under its path key so
		// path=A-P-V-P-A resolves to it instead of rebuilding.
		snap.paths.Store(pathAPVPA.String(), m.PathSim)
		snap.pathCount.Add(1)
	}
	snap.BuildTime = time.Since(start)
	snap.Epoch = s.epoch.Add(1)
	s.cur.Store(snap)
	return snap
}

// Rebuild materializes a fresh snapshot from seed and atomically swaps
// it in as the live generation. Concurrent queries keep reading the old
// snapshot until the swap; concurrent Rebuild calls run one at a time.
// The artifacts come from cluster.BuildModels — the same deterministic
// recipe a sharded tier builds its shared generation with.
func (s *Store) Rebuild(seed int64) *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	return s.publish(cluster.BuildModels(seed, s.spec()), 0, start)
}

// Ingest applies a delta batch as an incremental generation: the live
// network is cloned copy-on-write (the clone shares link storage,
// relation matrices and meta-path materializations), the deltas merge
// into the clone through internal/ingest, and a new snapshot is built
// from the result — PageRank and HITS warm-started from the previous
// epoch's scores, the co-author graph and the PathSim index patched
// row-incrementally from the previous epoch's matrices (a paper
// arrival invalidates every cached product along "paper"; what the
// clone carries is their patch bases) — then swapped in atomically. In-flight queries
// keep reading the previous snapshot (whose network is never mutated)
// until the swap; epochs come from the same counter as Rebuild, so
// they stay strictly monotonic across mixed ingest/rebuild streams.
//
// On a validation error the clone is discarded and nothing changes
// (ingestion is all-or-nothing at the store level). The clustering
// models (RankClus/NetClus) are carried over from the previous
// snapshot by default — they summarize the corpus and drift only
// slowly under small deltas; pass refreshModels to recompute them.
func (s *Store) Ingest(deltas []ingest.Delta, refreshModels bool) (*Snapshot, ingest.Summary, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur.Load()
	if cur == nil {
		return nil, ingest.Summary{}, errNoSnapshot
	}
	start := time.Now()
	m, sum, err := cluster.IngestModels(cur.Models, deltas, refreshModels, s.spec())
	if err != nil {
		return nil, sum, err
	}
	return s.publish(m, 0, start), sum, nil
}
