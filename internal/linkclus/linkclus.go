// Package linkclus implements the LinkClus layer of the tutorial
// (§4a): link-based similarity and clustering of bipartite networks at
// near-linear cost, positioned against quadratic SimRank.
//
// Substitution note: the original LinkClus
// (Yin, Han, Yu — VLDB'06) prunes SimRank's pair space with a SimTree
// whose construction exploits the power-law link distribution. This
// package keeps LinkClus's contract — mutual-reinforcement similarity
// with hierarchy-assisted queries in O(nnz·d) per iteration — but
// realizes it with a low-rank coupled embedding: alternating
// orthogonalized propagation U ← Ŵ V, V ← Ŵᵀ U (the same coupled
// recursion SimRank truncates), giving sim(a,b) = cos(U_a, U_b), plus a
// fanout-limited hierarchy built by recursive spherical k-means for
// query pruning. The experiment it supports preserves the paper's
// comparison shape: similarity quality close to SimRank at a fraction
// of its cost.
package linkclus

import (
	"cmp"
	"math"
	"slices"

	"hinet/internal/kmeans"
	"hinet/internal/sparse"
	"hinet/internal/stats"
)

// Options configures the embedding and hierarchy.
type Options struct {
	Dim      int // embedding rank, default 16
	Iters    int // propagation rounds, default 8
	Fanout   int // hierarchy branching factor, default 8
	LeafSize int // max objects per leaf, default 16
}

func (o Options) withDefaults() Options {
	if o.Dim == 0 {
		o.Dim = 16
	}
	if o.Iters == 0 {
		o.Iters = 8
	}
	if o.Fanout == 0 {
		o.Fanout = 8
	}
	if o.LeafSize == 0 {
		o.LeafSize = 16
	}
	return o
}

// Model holds the two-sided embeddings and the X-side hierarchy.
type Model struct {
	UX   [][]float64 // X-side embedding, row-normalized
	UY   [][]float64 // Y-side embedding, row-normalized
	Tree *TreeNode   // hierarchy over X objects
}

// TreeNode is one node of the SimTree-like hierarchy.
type TreeNode struct {
	Members  []int // X object ids under this node
	Centroid []float64
	Children []*TreeNode
}

// Fit builds the model from a bipartite matrix W (X×Y).
func Fit(rng *stats.RNG, w *sparse.Matrix, opt Options) *Model {
	opt = opt.withDefaults()
	nx, ny := w.Rows(), w.Cols()
	d := opt.Dim
	if d > nx {
		d = nx
	}
	if d > ny && ny > 0 {
		d = ny
	}
	if nx == 0 || ny == 0 || d == 0 {
		return &Model{UX: make([][]float64, nx), UY: make([][]float64, ny)}
	}
	// Row-stochastic propagation without materializing Ŵ and Ŵᵀ:
	// matProduct applies the inverse row sums on the fly — per-term
	// products (v·inv[r])·b match what RowNormalized copies would feed
	// the same loops bitwise — so only the transpose's structure is
	// built once.
	wt := w.Transpose()
	invX := w.RowInvSums()
	invY := wt.RowInvSums()

	// V: ny×d random orthonormal start.
	v := randomCols(rng, ny, d)
	u := make([][]float64, 0)
	for it := 0; it < opt.Iters; it++ {
		u = matProduct(w, invX, v, nx, d) // U ← Ŵ V
		orthonormalizeCols(u, d)
		v = matProduct(wt, invY, u, ny, d) // V ← Ŵᵀ U
		orthonormalizeCols(v, d)
	}
	u = matProduct(w, invX, v, nx, d)
	m := &Model{UX: rowNormalize(u), UY: rowNormalize(v)}
	m.Tree = buildTree(rng, m.UX, allIDs(nx), opt)
	return m
}

// Sim returns the estimated link-based similarity of X objects a and b
// in [-1, 1] (cosine of embeddings; linked-alike objects near 1).
func (m *Model) Sim(a, b int) float64 {
	return dot(m.UX[a], m.UX[b])
}

// SimY is Sim for Y-side objects.
func (m *Model) SimY(a, b int) float64 {
	return dot(m.UY[a], m.UY[b])
}

// Pair is a scored query answer.
type Pair struct {
	ID    int
	Score float64
}

// TopK returns the k most similar X objects to x, descending. The
// hierarchy prunes: beams of the most promising subtrees are descended
// (beam = 2×fanout), so only a fraction of objects is scored.
func (m *Model) TopK(x, k int) []Pair {
	if m.Tree == nil {
		return nil
	}
	q := m.UX[x]
	cands := map[int]bool{}
	frontier := []*TreeNode{m.Tree}
	for len(frontier) > 0 {
		// Score children of the frontier, keep the best few.
		var next []*TreeNode
		type scored struct {
			n *TreeNode
			s float64
		}
		var all []scored
		for _, node := range frontier {
			if len(node.Children) == 0 {
				for _, id := range node.Members {
					cands[id] = true
				}
				continue
			}
			for _, ch := range node.Children {
				all = append(all, scored{ch, dot(q, ch.Centroid)})
			}
		}
		slices.SortFunc(all, func(a, b scored) int { return cmp.Compare(b.s, a.s) })
		beam := 4
		if beam > len(all) {
			beam = len(all)
		}
		for _, sc := range all[:beam] {
			next = append(next, sc.n)
		}
		frontier = next
	}
	var out []Pair
	for id := range cands {
		if id != x {
			out = append(out, Pair{ID: id, Score: m.Sim(x, id)})
		}
	}
	slices.SortFunc(out, func(a, b Pair) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// Cluster partitions the X side into k clusters on the embedding.
func (m *Model) Cluster(rng *stats.RNG, k int) []int {
	if len(m.UX) == 0 {
		return nil
	}
	return kmeans.Cluster(rng, m.UX, k, kmeans.Options{Spherical: true}).Assign
}

func buildTree(rng *stats.RNG, emb [][]float64, members []int, opt Options) *TreeNode {
	node := &TreeNode{Members: members, Centroid: centroid(emb, members)}
	if len(members) <= opt.LeafSize {
		return node
	}
	pts := make([][]float64, len(members))
	for i, id := range members {
		pts[i] = emb[id]
	}
	k := opt.Fanout
	if k > len(members) {
		k = len(members)
	}
	res := kmeans.Cluster(rng, pts, k, kmeans.Options{Spherical: true, Restarts: 1, MaxIter: 20})
	groups := make([][]int, k)
	for i, c := range res.Assign {
		groups[c] = append(groups[c], members[i])
	}
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		if len(g) == len(members) {
			// no split progress; stop to avoid recursion
			return node
		}
		node.Children = append(node.Children, buildTree(rng, emb, g, opt))
	}
	return node
}

func centroid(emb [][]float64, members []int) []float64 {
	if len(members) == 0 || len(emb) == 0 {
		return nil
	}
	d := len(emb[members[0]])
	c := make([]float64, d)
	for _, id := range members {
		for j, v := range emb[id] {
			c[j] += v
		}
	}
	norm := 0.0
	for _, v := range c {
		norm += v * v
	}
	if norm > 0 {
		norm = 1 / math.Sqrt(norm)
		for j := range c {
			c[j] *= norm
		}
	}
	return c
}

func randomCols(rng *stats.RNG, n, d int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, d)
		for j := range m[i] {
			m[i][j] = rng.NormFloat64()
		}
	}
	orthonormalizeCols(m, d)
	return m
}

// matProduct computes diag(inv)·A·B for sparse A (n×m), dense B (m×d)
// and the inverse-row-sum vector inv (the fused replacement for
// normalizing A first). Rows of the output are independent, so the loop
// runs on the shared sparse worker pool (each propagation round is the
// package's hot path).
func matProduct(a *sparse.Matrix, inv []float64, b [][]float64, n, d int) [][]float64 {
	out := make([][]float64, n)
	sparse.ParRange(n, a.NNZ()*d, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := make([]float64, d)
			xi := inv[r]
			a.Row(r, func(c int, v float64) {
				v *= xi
				for j := 0; j < d; j++ {
					row[j] += v * b[c][j]
				}
			})
			out[r] = row
		}
	})
	return out
}

// orthonormalizeCols runs modified Gram–Schmidt over the d columns.
func orthonormalizeCols(m [][]float64, d int) {
	n := len(m)
	for j := 0; j < d; j++ {
		for i := 0; i < j; i++ {
			dp := 0.0
			for r := 0; r < n; r++ {
				dp += m[r][j] * m[r][i]
			}
			for r := 0; r < n; r++ {
				m[r][j] -= dp * m[r][i]
			}
		}
		norm := 0.0
		for r := 0; r < n; r++ {
			norm += m[r][j] * m[r][j]
		}
		if norm < 1e-18 {
			// Collapsed column: replace with a deterministic vector,
			// project once against the earlier columns, and accept the
			// result (a second collapse leaves a unit basis vector).
			for r := 0; r < n; r++ {
				m[r][j] = float64((r*(j+7))%13) - 6
			}
			for i := 0; i < j; i++ {
				dp := 0.0
				for r := 0; r < n; r++ {
					dp += m[r][j] * m[r][i]
				}
				for r := 0; r < n; r++ {
					m[r][j] -= dp * m[r][i]
				}
			}
			norm = 0
			for r := 0; r < n; r++ {
				norm += m[r][j] * m[r][j]
			}
			if norm < 1e-18 {
				for r := 0; r < n; r++ {
					m[r][j] = 0
				}
				m[j%n][j] = 1
				continue
			}
		}
		norm = 1 / math.Sqrt(norm)
		for r := 0; r < n; r++ {
			m[r][j] *= norm
		}
	}
}

func rowNormalize(m [][]float64) [][]float64 {
	for i := range m {
		norm := 0.0
		for _, v := range m[i] {
			norm += v * v
		}
		if norm > 0 {
			norm = 1 / math.Sqrt(norm)
			for j := range m[i] {
				m[i][j] *= norm
			}
		}
	}
	return m
}

func allIDs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
