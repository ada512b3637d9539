// Package cluster is the write path and the serving snapshot, the one
// kernel and write surface internal/serve knows. It applies each write
// once and publishes a View; every PathSim top-k read is a View method.
//
// The coordinator applies each write (Ingest/Rebuild) once: it builds
// the network and the models over it (PageRank, HITS, RankClus, NetClus)
// as one immutable generation (Models) and, beside them, the default
// path's index over the whole endpoint type, and publishes a View. A
// rejected or failed write changes nothing. The cluster keeps no
// history: a generation is a deterministic function of the seed and the
// deltas applied since, so a process restart boots the seeded
// generation and the deltas must be shipped again.
//
// A View is one published generation and the serving snapshot, which a
// request loads once and reads throughout: the epoch, the Models and the
// index of each meta-path served from it — a pathsim.Index over the
// path's half-path factor W and its transpose, which the network's
// meta-path engine caches once. No index materializes the commuting
// matrix W·Wᵀ; a query accumulates its one row of it. A superseded
// generation is freed when the last View holding it goes. A meta-path's
// index is built by Resolve, on the asking request's goroutine, before
// the first query over it.
//
// The engine still splits each index into candidate ranges [Lo, Hi)
// over N in-process shards (Partition, LocalShard): TopK fans a query
// out to every range and merges the sorted partials in the order the
// single-index scan selects by (pathsim.MergeTopK), so the answer is
// bitwise-equal at any N, tie order included. Only the benchmark's
// sharded3 workload and its cluster rungs run more than one shard; no
// flag, endpoint or series exposes them.
package cluster

// ClientError marks a query error caused by the request itself (a bad
// path) rather than shard state; the serving layer maps it to HTTP 400.
type ClientError struct{ Err error }

func (e *ClientError) Error() string { return e.Err.Error() }
func (e *ClientError) Unwrap() error { return e.Err }
