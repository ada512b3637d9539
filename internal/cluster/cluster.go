// Package cluster is the scatter-gather serving tier, the one kernel
// and write surface internal/serve knows: it splits the PathSim query
// plane of one logical snapshot across N shards while keeping every
// answer bitwise-identical at any N. An unsharded server is the N = 1
// case — one shard owning the whole candidate range.
//
// A shard is a candidate range, not a replica. Each shard owns a
// contiguous range [Lo, Hi) of the PathSim index's endpoint type, chosen
// to balance scan work (Partition), and answers from a pathsim.Index over
// that range: the path's half-path factor W and its transpose, which the
// network's meta-path engine caches once. No shard, at any count,
// materializes the commuting matrix W·Wᵀ; a query accumulates its one
// row of it, cut to the shard's range.
//
// The coordinator applies each write (Ingest/Rebuild) once: it builds
// the network and the models over it (PageRank, HITS, RankClus, NetClus)
// as one immutable generation (Models) and, beside them, the default
// path's index over the whole type, cuts every shard's range from it
// and publishes a View. A rejected or failed write changes nothing. The
// cluster keeps no history: a generation is a deterministic function of
// the seed and the deltas applied since, so a process restart boots the
// seeded generation and the deltas must be shipped again. Ranking and
// clustering are functions of the whole network, so no shard answers
// them: whoever holds a View reads its Models directly.
//
// A View is one published generation and the serving snapshot, which
// a request loads once and reads throughout: the epoch, the Models and
// every shard's range of each meta-path served from it — one index per
// path, one diagonal, N cuts sharing W and Wᵀ. Every PathSim read is a View
// method, so a read cannot miss its generation, and a superseded one is
// freed when the last View holding it goes. TopK/BatchTopK scatter to
// all shards — every shard scores its range of the query's row and
// returns a local top-k — and the partials, each already sorted, merge
// in the order the single-index scan selects by (pathsim.MergeTopK, a
// k-way merge), which is what makes the merged answer bitwise-equal,
// tie order included. A meta-path's ranges are built by Resolve, on the
// asking request's goroutine, before the first query over it.
package cluster

// ShardStats is one shard's observable state in the published View: its
// epoch (the View's), partition geometry, the default-path index size
// (pathsim.Index.NNZ over the shard's range: the skew signal), and load
// counters — the PathSim reads (TopK, BatchTopK) the shard has taken
// and is running; no other read reaches a shard.
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
