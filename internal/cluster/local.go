// LocalShard: one in-process shard — a candidate range, not a replica.
// It owns the rule that places its range [Lo, Hi) of a meta-path's
// endpoint type (boundsFor). The models and the range indexes belong to the
// coordinator and its Views: each write is applied once, and a View
// cuts every shard's range of a path from one index over the whole type.

package cluster

import (
	"hinet/internal/hin"
	"hinet/internal/pathsim"
)

// A View's path memo is bounded in bytes, not keys: what it pins is
// charged to the network's meta-path engine, the generation's one byte
// account (View.Resolve). Past the budget, Resolve builds a path's
// ranges for each request that asks and hands them to that request
// alone — built once per request, correct, just uncached.

// LocalShard is one in-process shard of a NewLocalCluster.
type LocalShard struct {
	id   int
	part Partition
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

// cut returns the shard's range of full, an index over its path's whole
// endpoint type: W, Wᵀ and the diagonal stay shared. A range that is
// the whole type — the one-shard case — is full itself.
func (sh *LocalShard) cut(full *pathsim.Index) (*pathsim.Index, error) {
	lo, hi := sh.boundsFor(full.Path[len(full.Path)-1], full.Dim())
	if lo == full.Lo() && hi == full.Hi() {
		return full, nil
	}
	return full.Range(lo, hi)
}
