// Snapshots: what a request reads and renders from. A Snapshot holds
// one cluster.View — the corpus (names, ground truth), ranking vectors
// and cluster models as the cluster tier built them (internal/cluster),
// and every shard's range of the similarity index, cut from one index
// over one shared factor — so a request that loaded it reads one
// generation throughout, whatever writes land meanwhile. The Store
// holds the live snapshot behind an atomic pointer: queries read it
// wait-free, a write builds a whole new generation off to the side
// (Server.adopt) and swaps it in, so a write never blocks or corrupts
// in-flight queries. Each generation carries the cluster's
// monotonically increasing epoch; the result cache keys on it, so a swap
// implicitly invalidates every cached answer.

package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"hinet/internal/cluster"
	"hinet/internal/dblp"
	"hinet/internal/metapath"
)

// Meta paths materialized at generation build time: APVPA (shared-venue
// peers, the default PathSim index) and APA (co-authorship, the square
// graph PageRank and HITS run on). These alias internal/cluster's,
// where the model recipe lives.
var (
	pathAPVPA    = cluster.PathAPVPA
	pathAPA      = cluster.PathAPA
	pathAPVPAKey = pathAPVPA.String() // the default path's batch-group and cache key
)

// Snapshot is one immutable generation of serving artifacts. Nothing
// in it is mutated after publish; handlers may read it from any
// goroutine without locking.
type Snapshot struct {
	BuiltAt   time.Time     // wall-clock time of the build
	BuildTime time.Duration // how long materialization took

	// The generation, pinned: its Epoch (published by the cluster, starts
	// at 1), its PathSim reads (Resolve, TopK, BatchTopK) and its Models —
	// Seed, Corpus, PageRank, HITS, RankClus, NetClus, the very pointer
	// the cluster built. Models.PathSim is nil: the View holds the
	// default index as the shards' candidate ranges.
	*cluster.View
	// The default (APVPA) index's size: the endpoint type's count, and
	// pathsim.Index.NNZ — the multiply-adds of scanning every row —
	// summed over the shards' ranges, which partition the candidates
	// exactly (/v1/stats, /metrics, the CLI banner).
	IndexDim, IndexNNZ int

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

// Engine returns the snapshot's meta-path engine (the planner and
// materialization cache of the snapshot's network).
func (s *Snapshot) Engine() *metapath.Engine { return s.Corpus.Net.PathEngine() }

// ModelConfig controls what a generation materializes.
type ModelConfig struct {
	Corpus   dblp.Config // corpus size/separability (zero value = library defaults)
	K        int         // cluster count for RankClus/NetClus (0 = number of corpus areas)
	Restarts int         // random restarts per clustering model (0 = 1)
}

// spec translates the model configuration into the cluster tier's
// build-recipe spec.
func (cfg ModelConfig) spec() cluster.ModelSpec {
	return cluster.ModelSpec{Corpus: cfg.Corpus, K: cfg.K, Restarts: cfg.Restarts}
}

// Store holds the live snapshot and serializes the writes that replace
// it.
type Store struct {
	cur atomic.Pointer[Snapshot]
	mu  sync.Mutex // one write at a time
}

// Current returns the live snapshot.
func (s *Store) Current() *Snapshot { return s.cur.Load() }
