// Horizontal partitioning of the similarity index's candidate space.
// The partition is fixed at coordinator construction — bounds are part
// of the cluster's identity, not per-generation state — and ids are
// append-only, so objects added by ingest land past the last boundary
// and are absorbed by the last shard until a re-partition (a future
// rebalance operation; skew is surfaced so operators can see it
// coming).

package cluster

import "fmt"

// Partition splits the id space [0, Bounds[len-1]) of one object type
// into len(Bounds)-1 contiguous shard ranges: shard i owns
// [Bounds[i], Bounds[i+1]).
type Partition struct {
	// Of is the partitioned object type (the default path's endpoint
	// type, e.g. "author"). Meta-paths ending in a different type fall
	// back to even id-range splits of that type.
	Of string
	// Bounds has one entry per shard boundary; Bounds[0] is always 0.
	Bounds []int
}

// PartitionByNNZ cuts [0, dim) into shards ranges balancing the
// cumulative row weight (typically the PathSim commuting matrix's
// per-row nonzero count, so each shard scans a comparable share of the
// index regardless of hub skew). Cut i lands on the first row where
// the weight prefix reaches i/shards of the total. Falls back to even
// id ranges when the total weight is zero.
func PartitionByNNZ(of string, dim, shards int, rowWeight func(int) int) Partition {
	if shards < 1 {
		panic("cluster: need at least one shard")
	}
	total := 0
	for r := 0; r < dim; r++ {
		total += rowWeight(r)
	}
	if total == 0 {
		return PartitionUniform(of, dim, shards)
	}
	bounds := make([]int, shards+1)
	bounds[shards] = dim
	prefix, row := 0, 0
	for i := 1; i < shards; i++ {
		// Smallest row with prefix(row) ≥ i·total/shards; rows and
		// targets both advance monotonically, one pass overall.
		target := (i*total + shards - 1) / shards
		for row < dim && prefix < target {
			prefix += rowWeight(row)
			row++
		}
		bounds[i] = row
	}
	return Partition{Of: of, Bounds: bounds}
}

// PartitionUniform cuts [0, dim) into equal-width id ranges — the
// fallback when no weight signal exists, and the degenerate-skew
// baseline the equivalence tests exercise.
func PartitionUniform(of string, dim, shards int) Partition {
	if shards < 1 {
		panic("cluster: need at least one shard")
	}
	bounds := make([]int, shards+1)
	for i := 0; i <= shards; i++ {
		bounds[i] = i * dim / shards
	}
	return Partition{Of: of, Bounds: bounds}
}

// Shards returns the number of shard ranges.
func (p Partition) Shards() int { return len(p.Bounds) - 1 }

// Range returns shard i's owned range [lo, hi) at partition time (the
// last shard additionally absorbs ids appended after construction —
// see rangeOf).
func (p Partition) Range(i int) (lo, hi int) { return p.Bounds[i], p.Bounds[i+1] }

// rangeOf resolves shard i's range against a current dimension of the
// partitioned type: the last shard's range grows to absorb appended
// ids. dim below the partition's last bound is impossible (ids are
// append-only) and panics rather than silently dropping candidates.
// No write reaches it: remove-node keeps the id slot, so no count shrinks.
func (p Partition) rangeOf(i, dim int) (lo, hi int) {
	lo, hi = p.Range(i)
	if i == p.Shards()-1 {
		if dim < hi {
			panic(fmt.Sprintf("cluster: dimension shrank below partition bound: %d < %d", dim, hi))
		}
		hi = dim
	}
	return lo, hi
}

// evenRange is the fallback split for meta-paths whose endpoint type
// is not the partitioned one: shard i owns [i·dim/s, (i+1)·dim/s).
// Every shard's range comes from the same dim, so the ranges are
// disjoint and covering by construction.
func evenRange(i, shards, dim int) (lo, hi int) {
	return i * dim / shards, (i + 1) * dim / shards
}
