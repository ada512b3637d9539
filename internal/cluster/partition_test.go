package cluster

import (
	"math/rand"
	"testing"
)

func TestPartitionByNNZBalances(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		dim := 1 + rng.Intn(500)
		shards := 1 + rng.Intn(9)
		weights := make([]int, dim)
		total := 0
		for i := range weights {
			// Heavy-tailed: a few hub rows dominate.
			w := rng.Intn(4)
			if rng.Intn(20) == 0 {
				w = 200 + rng.Intn(400)
			}
			weights[i] = w
			total += w
		}
		p := PartitionByNNZ("author", dim, shards, func(r int) int { return weights[r] })
		if p.Shards() != shards {
			t.Fatalf("got %d ranges, want %d", p.Shards(), shards)
		}
		// Disjoint, covering, monotone.
		if p.Bounds[0] != 0 || p.Bounds[shards] != dim {
			t.Fatalf("bounds %v do not cover [0,%d)", p.Bounds, dim)
		}
		for i := 1; i <= shards; i++ {
			if p.Bounds[i] < p.Bounds[i-1] {
				t.Fatalf("bounds %v not monotone", p.Bounds)
			}
		}
		if total == 0 {
			continue
		}
		// Each shard's weight stays within one max row of the even
		// share (cut points land on the first row crossing each target).
		maxRow := 0
		for _, w := range weights {
			maxRow = max(maxRow, w)
		}
		share := total / shards
		for i := 0; i < shards; i++ {
			lo, hi := p.Range(i)
			w := 0
			for r := lo; r < hi; r++ {
				w += weights[r]
			}
			if w > share+maxRow {
				t.Fatalf("shard %d weight %d exceeds share %d + max row %d (bounds %v)",
					i, w, share, maxRow, p.Bounds)
			}
		}
	}
}

func TestPartitionUniformAndZeroWeight(t *testing.T) {
	p := PartitionByNNZ("author", 10, 3, func(int) int { return 0 })
	u := PartitionUniform("author", 10, 3)
	for i := range u.Bounds {
		if p.Bounds[i] != u.Bounds[i] {
			t.Fatalf("zero-weight fallback %v, want uniform %v", p.Bounds, u.Bounds)
		}
	}
	lo, hi := u.rangeOf(2, 15) // last shard absorbs appended ids
	if lo != u.Bounds[2] || hi != 15 {
		t.Fatalf("rangeOf(last, 15) = [%d,%d)", lo, hi)
	}
	if lo, hi := u.rangeOf(0, 15); lo != 0 || hi != u.Bounds[1] {
		t.Fatalf("rangeOf(0, 15) = [%d,%d), want fixed bounds", lo, hi)
	}
}
