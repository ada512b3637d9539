// Package cluster is the write path and the serving snapshot, the one
// kernel and write surface internal/serve knows. It applies each write
// once and publishes a View; every PathSim top-k read starts at the
// View's Resolve.
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
// generation is freed when the last View holding it goes.
//
// View.Resolve is the one reader of a meta-path spec: it parses and
// validates it against the View's schema and returns the path's Ranges
// — memoized, or built then and there on the asking request's
// goroutine — and the caller queries the Ranges it was handed, so no
// read looks a path up twice. No other package parses a served path.
//
// The engine still splits each index into candidate ranges [Lo, Hi)
// over N in-process shards (Partition, LocalShard): Ranges.TopK fans a
// query out to every range and merges the sorted partials in the order
// the single-index scan selects by (pathsim.MergeTopK), so the answer is
// bitwise-equal at any N, tie order included. Only the benchmark's
// sharded3 workload and its cluster rungs run more than one shard; no
// flag, endpoint or series exposes them.
package cluster
