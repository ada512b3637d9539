// Package cluster is the scatter-gather serving tier, the one kernel
// and write surface internal/serve knows: it splits the PathSim query
// plane of one logical snapshot across N shards while keeping every
// answer bitwise-identical at any N. An unsharded server is the N = 1
// case — one shard owning the whole candidate range.
//
// The design partitions the *similarity index* and shares the
// *models*:
//
//   - Each shard owns a contiguous candidate range [Lo, Hi) of the
//     PathSim index's endpoint type, chosen to balance scan work
//     (Partition), and answers from a pathsim.Index over that range: the
//     path's half-path factor W and its transpose, which the network's
//     meta-path engine caches once and every shard holds by pointer. No
//     shard, at any count, materializes the commuting matrix W·Wᵀ; a
//     query accumulates its one row of it, cut to the shard's range.
//   - The network and the models over it (PageRank, HITS, RankClus,
//     NetClus) are one immutable generation (Models) per write, built
//     once and shared by pointer among in-process shards. Being
//     deterministic in (seed, spec, delta history), a shard that cannot
//     share — replaying its log — rebuilds a bit-identical replica.
//     Ranking and clustering are functions of the whole network, so no
//     shard answers them: whoever holds a View reads its Models directly.
//
// A View is one published generation of every shard: the epoch, the
// shared Models and each shard's generation, held by pointer. Every
// PathSim read is a View method, so a read cannot miss its generation,
// and a superseded one is freed when the last View holding it goes.
// TopK/BatchTopK scatter to all shards — every shard scores its range of
// the query's row and returns a local top-k — and the partials, each
// already sorted, merge in the order the single-index scan selects by
// (pathsim.MergeTopK, a k-way merge), which is what makes the merged
// answer bitwise-equal, tie order included. A meta-path's range indexes
// are materialized by Resolve, on the asking request's goroutine, before
// the first query over it.
//
// Writes (Ingest/Rebuild) fan out shard 0 first: every shard applies
// the same write to the same state, so shard 0 acts as the validation
// gate — if it rejects a batch nothing has changed anywhere, and if it
// accepts, the remaining shards cannot fail differently. The
// coordinator publishes the next View once every shard has published.
package cluster

// ShardStats is one shard's observable state: partition geometry, the
// default-path index size (pathsim.Index.NNZ over the shard's range: the
// skew signal), and load counters — the PathSim reads (TopK, BatchTopK)
// the shard has taken and is running; no other read reaches a shard.
type ShardStats struct {
	ID       int    `json:"id"`
	Epoch    int64  `json:"epoch"`
	Lo       int    `json:"lo"`
	Hi       int    `json:"hi"`
	Rows     int    `json:"rows"`
	NNZ      int    `json:"nnz"`
	Inflight int64  `json:"inflight"`
	Queries  uint64 `json:"queries"`
}

// ClientError marks a query error caused by the request itself (a bad
// path) rather than shard state; the serving layer maps it to HTTP 400.
type ClientError struct{ Err error }

func (e *ClientError) Error() string { return e.Err.Error() }
func (e *ClientError) Unwrap() error { return e.Err }
