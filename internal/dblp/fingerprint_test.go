package dblp

import (
	"cmp"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"hinet/internal/graph"
	"hinet/internal/sparse"
	"hinet/internal/stats"
)

// fingerprint is an FNV-1a hash of everything a generated corpus is: the
// types in registration order, every type's names in id order, the
// ground-truth labels, every relation matrix's bits in both orientations,
// and every object's homogeneous-view neighbours, sorted by id, with
// their weights' bits.
func fingerprint(c *Corpus) uint64 {
	h := fnv.New64a()
	word := func(v uint64) { writeWord(h, v) }
	net := c.Net
	types := net.Types()
	for _, t := range types {
		word(uint64(len(t)))
		h.Write([]byte(t))
		word(uint64(net.Count(t)))
		for _, name := range net.Names(t) {
			word(uint64(len(name)))
			h.Write([]byte(name))
		}
	}
	for _, labels := range [][]int{c.PaperArea, c.AuthorArea, c.VenueArea, c.TermArea, c.PaperYear} {
		word(uint64(len(labels)))
		for _, l := range labels {
			word(uint64(l))
		}
	}
	for _, e := range net.SchemaEdges() {
		for _, m := range [2]*sparse.Matrix{net.Relation(e[0], e[1]), net.Relation(e[1], e[0])} {
			word(uint64(m.Rows()))
			word(uint64(m.Cols()))
			for r := 0; r < m.Rows(); r++ {
				cols, vals := m.RowEntries(r)
				word(uint64(len(cols)))
				for i, col := range cols {
					word(uint64(col))
					word(math.Float64bits(vals[i]))
				}
			}
		}
	}
	g, _ := net.Homogeneous()
	for u := 0; u < g.N(); u++ {
		nbrs := slices.Clone(g.Neighbors(u))
		slices.SortFunc(nbrs, func(a, b graph.Edge) int {
			if c := cmp.Compare(a.To, b.To); c != 0 {
				return c
			}
			return cmp.Compare(math.Float64bits(a.Weight), math.Float64bits(b.Weight))
		})
		for _, e := range nbrs {
			word(uint64(e.To))
			word(math.Float64bits(e.Weight))
		}
		word(math.MaxUint64)
	}
	return h.Sum64()
}

func writeWord(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// TestGenerateFingerprint: the generator's output is pinned bit for bit —
// names, ids, labels, relation matrices and the homogeneous view — at the default
// corpus and at the 4 000-author serving corpus, so a faster way of
// building the same network can show it is the same network.
func TestGenerateFingerprint(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
		cfg  Config
		want uint64
	}{
		{"default", 1, Config{}, 0x4559c93cc2acd096},
		{"4000 authors", 1, Config{AuthorsPerArea: 1000, Papers: 10_000}, 0xa96e8b2c34ee1cb0},
	} {
		if got := fingerprint(Generate(stats.NewRNG(tc.seed), tc.cfg)); got != tc.want {
			t.Errorf("%s: fingerprint %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
