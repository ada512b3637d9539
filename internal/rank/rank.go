// Package rank implements the link-based ranking algorithms the tutorial
// covers for homogeneous networks (§2b.ii–iii) — PageRank, Personalized
// PageRank and HITS — plus the two conditional ranking functions for
// bi-typed networks that RankClus (§4c) integrates with clustering:
// simple ranking and authority ranking.
//
// All iterations are hand-rolled over the CSR matrices in
// internal/sparse — power iterations, and Chebyshev semi-iteration for
// PageRank on an undirected graph; no external numeric library is used.
// The matrix products and the element-wise/reduction loops of each
// iteration run on sparse's shared parallel worker pool, so large
// networks use every core while a graph too small to be worth a
// hand-off (see sparse.SerialThreshold) iterates on the goroutine that
// asked.
package rank

import (
	"math"

	"hinet/internal/sparse"
	"hinet/internal/stats"
)

// Options configures the fixed-point iterations.
type Options struct {
	Damping   float64 // PageRank damping factor d (default 0.85)
	MaxIter   int     // iteration cap (default 100)
	Tolerance float64 // L∞ convergence threshold (default 1e-9)

	// Start warm-starts the iteration from a previous solution
	// instead of the restart distribution. The fixed point is the same
	// — PageRank's stationary distribution does not depend on the
	// starting vector — and starting near it (e.g. from the previous
	// epoch's scores after a small delta batch) usually converges in
	// fewer iterations, which is what the incremental ingestion path
	// exploits (not always: the error of a warm start may sit on a
	// slowly decaying mode that a cold start barely excites;
	// docs/ARCHITECTURE.md has the measured spread). The vector is
	// copied and L1-normalized; it is ignored when its length does not
	// match the matrix or it has no positive mass, so callers can pass a
	// stale vector unconditionally. HITS takes it as the initial hub
	// vector (L2-normalized, same guard).
	Start []float64
}

func (o Options) withDefaults() Options {
	if o.Damping == 0 {
		o.Damping = 0.85
	}
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-9
	}
	return o
}

// Result carries a ranking vector plus convergence diagnostics.
type Result struct {
	Scores     []float64
	Iterations int
	Converged  bool
}

// TopK returns the ids of the k highest-scoring nodes, descending
// (ties by lower id; k is clamped to [0, node count]).
func (r Result) TopK(k int) []int { return stats.TopK(r.Scores, k) }

// PageRank computes the stationary distribution of the damped random
// walk on adj (a possibly weighted, directed adjacency matrix whose
// rows are source nodes). Dangling rows redistribute uniformly. The
// output sums to 1. A directed graph runs the power iteration; an
// undirected one (adj symmetric, no negative weight) runs Chebyshev
// semi-iteration toward the same fixed point, in fewer steps where the
// walk mixes slowly.
func PageRank(adj *sparse.Matrix, opt Options) Result {
	return personalized(adj, nil, opt)
}

// Personalized computes Personalized PageRank with restart distribution
// restart (need not be normalized; zero vector behaves like uniform).
func Personalized(adj *sparse.Matrix, restart []float64, opt Options) Result {
	return personalized(adj, restart, opt)
}

func personalized(adj *sparse.Matrix, restart []float64, opt Options) Result {
	opt = opt.withDefaults()
	n := adj.Rows()
	if adj.Cols() != n {
		panic("rank: PageRank needs a square matrix")
	}
	if n == 0 {
		return Result{Converged: true}
	}
	// Fused row-stochastic iteration: instead of materializing the
	// normalized transition matrix (a full value-array copy), keep the
	// inverse row sums and let MulVecTNorm apply them on the fly — the
	// per-term products match RowNormalized().MulVecT bitwise. One
	// sweep fills both lists: rows summing to zero are the dangling
	// rows — kept as an ascending id list, so an iteration sums their
	// mass without scanning every row — and get inv = 1 (left
	// unnormalized, exactly like RowNormalized) while redistributing via
	// the dangling mass.
	inv := make([]float64, n)
	var dangling []int
	for r := 0; r < n; r++ {
		if s := adj.RowSum(r); s != 0 {
			inv[r] = 1 / s
		} else {
			inv[r] = 1
			dangling = append(dangling, r)
		}
	}
	tele := make([]float64, n)
	if restart == nil {
		for i := range tele {
			tele[i] = 1 / float64(n)
		}
	} else {
		if len(restart) != n {
			panic("rank: restart vector length mismatch")
		}
		copy(tele, restart)
		if s := sum(tele); s > 0 {
			sparse.ScaleVec(1/s, tele)
		} else {
			for i := range tele {
				tele[i] = 1 / float64(n)
			}
		}
	}
	x := make([]float64, n)
	copy(x, tele)
	if len(opt.Start) == n {
		if s := sum(opt.Start); s > 0 {
			copy(x, opt.Start)
			sparse.ScaleVec(1/s, x)
		}
	}
	next := make([]float64, n)
	d := opt.Damping
	// The update below is x ↦ Hx + c with H = d·(Pᵀ + tele·danglingᵀ).
	// When the walk's spectrum is real and inside [lo, 1], H's lies in
	// [α, β] = [d·lo, d], and Chebyshev semi-iteration (Golub & Varga)
	// replaces x by prev + ω·(γ·(Hx + c) + (1−γ)·x − prev): γ centres
	// [α, β] on zero with half-width σ, and the weights ω make step k's
	// error the degree-k Chebyshev polynomial in H, which shrinks by
	// σ/(1+√(1−σ²)) a step where the power iteration shrinks by d —
	// 0.51 against 0.85 at lo = −½. The fixed point is the same.
	low, accel := walkSpectrum(adj, inv)
	accel = accel && d < 1
	alpha := d * low
	gamma, sigma := 2/(2-alpha-d), (d-alpha)/(2-alpha-d)
	omega := 1.0
	var prev []float64
	if accel {
		prev = append([]float64(nil), x...)
	}
	for it := 1; it <= opt.MaxIter; it++ {
		// next = d·(Pᵀx + danglingMass·tele) + (1-d)·tele, with
		// P = diag(inv)·adj applied without materialization.
		adj.MulVecTNorm(x, inv, next)
		dm := sparse.ParReduce(len(dangling), len(dangling), func(lo, hi int) float64 {
			s := 0.0
			for _, r := range dangling[lo:hi] {
				s += x[r]
			}
			return s
		})
		switch {
		case it == 2:
			omega = 1 / (1 - sigma*sigma/2)
		case it > 2:
			omega = 1 / (1 - sigma*sigma*omega/4)
		}
		// One pass finishes the update and takes the L∞ step from x in the
		// same sweep (a max is order-independent, so blocks change no bit).
		step := sparse.ParReduceMax(n, n, func(lo, hi int) float64 {
			m := 0.0
			for i := lo; i < hi; i++ {
				v := d*(next[i]+dm*tele[i]) + (1-d)*tele[i]
				if accel {
					v = prev[i] + omega*(gamma*v+(1-gamma)*x[i]-prev[i])
				}
				next[i] = v
				if diff := math.Abs(x[i] - v); diff > m {
					m = diff
				}
			}
			return m
		})
		if step < opt.Tolerance {
			copy(x, next)
			return Result{Scores: x, Iterations: it, Converged: true}
		}
		if accel {
			prev, x, next = x, next, prev
		} else {
			x, next = next, x
		}
	}
	return Result{Scores: x, Iterations: opt.MaxIter, Converged: false}
}

// walkSpectrum reports whether PageRank's iteration on adj has a real
// spectrum and, if so, returns lo ≤ 0 such that [lo, 1] holds the
// spectrum of Pᵀ + tele·danglingᵀ. The spectrum is real when adj is
// symmetric with nonnegative weights — an undirected graph: the walk
// D⁻¹·adj is then similar to the symmetric D^-½·adj·D^-½. A dangling
// row of such a graph is also a zero column, so the teleport coupling
// only adds eigenvalues in [0, 1]. lo comes from Gershgorin: row r's
// disc is centred at a_rr/d_r with radius 1 − a_rr/d_r, so no
// eigenvalue of the walk lies below 2·a_rr/d_r − 1.
func walkSpectrum(adj *sparse.Matrix, inv []float64) (lo float64, ok bool) {
	if !adj.Symmetric() {
		return 0, false
	}
	for r := range inv {
		cols, vals := adj.RowEntries(r)
		diag := 0.0
		for i, v := range vals {
			if v < 0 {
				return 0, false
			}
			if int(cols[i]) == r {
				diag = v
			}
		}
		if len(vals) > 0 {
			lo = min(lo, 2*diag*inv[r]-1)
		}
	}
	return lo, true
}

// HITSResult carries the two HITS vectors.
type HITSResult struct {
	Authority  []float64
	Hub        []float64
	Iterations int
	Converged  bool
}

// TopAuthorities returns the ids of the k highest-authority nodes,
// descending.
func (h HITSResult) TopAuthorities(k int) []int { return stats.TopK(h.Authority, k) }

// TopHubs returns the ids of the k highest-hub nodes, descending.
func (h HITSResult) TopHubs(k int) []int { return stats.TopK(h.Hub, k) }

// HITS computes hub and authority scores by the mutual-reinforcement
// iteration a ← Aᵀh, h ← Aa with L2 normalization each round, from the
// uniform hub vector or, warm, from opt.Start (a previous solution's
// hubs: the principal eigenvector the iteration converges to does not
// depend on where it starts).
func HITS(adj *sparse.Matrix, opt Options) HITSResult {
	opt = opt.withDefaults()
	n := adj.Rows()
	if adj.Cols() != n {
		panic("rank: HITS needs a square matrix")
	}
	if n == 0 {
		return HITSResult{Converged: true}
	}
	a := make([]float64, n)
	h := make([]float64, n)
	for i := range h {
		h[i] = 1 / math.Sqrt(float64(n))
		a[i] = h[i]
	}
	if len(opt.Start) == n && sparse.Norm2(opt.Start) > 0 {
		copy(h, opt.Start)
		normalize2(h)
	}
	prevA := make([]float64, n)
	for it := 1; it <= opt.MaxIter; it++ {
		copy(prevA, a)
		adj.MulVecT(h, a) // authority from in-links
		normalize2(a)
		adj.MulVec(a, h) // hub from out-links
		normalize2(h)
		if sparse.MaxAbsDiff(prevA, a) < opt.Tolerance {
			return HITSResult{Authority: a, Hub: h, Iterations: it, Converged: true}
		}
	}
	return HITSResult{Authority: a, Hub: h, Iterations: opt.MaxIter, Converged: false}
}

// BiRank is the result of ranking a bi-typed network: conditional rank
// distributions over the target type X and attribute type Y. Both sum
// to 1 (they are probability distributions, per the RankClus model).
type BiRank struct {
	X, Y []float64
}

// SimpleRanking ranks by normalized weighted degree: rY(j) ∝ Σ_i W[i][j],
// rX(i) ∝ Σ_j W[i][j]. This is RankClus's cheap ranking function; it is
// vulnerable to spam-like high-degree objects but needs no iteration.
func SimpleRanking(w *sparse.Matrix) BiRank {
	x := make([]float64, w.Rows())
	y := make([]float64, w.Cols())
	for r := 0; r < w.Rows(); r++ {
		w.Row(r, func(c int, v float64) {
			x[r] += v
			y[c] += v
		})
	}
	normalize1(x)
	normalize1(y)
	return BiRank{X: x, Y: y}
}

// AuthorityOptions configures AuthorityRanking.
type AuthorityOptions struct {
	Alpha     float64 // weight of the X–X homogeneous propagation (default 0.95 when WXX present, else 1)
	MaxIter   int
	Tolerance float64
}

// AuthorityRanking computes RankClus's authority ranking on a bi-typed
// network: iterate
//
//	rY ← normalize(Wᵀ rX)
//	rX ← normalize(α·W rY + (1-α)·WXX rX)
//
// until the rank distributions stabilize. High-rank attribute objects
// propagate authority to the targets they link, and vice versa; this is
// the ranking whose conditional form drives RankClus and NetClus.
func AuthorityRanking(w, wxx *sparse.Matrix, opt AuthorityOptions) BiRank {
	if opt.MaxIter == 0 {
		opt.MaxIter = 100
	}
	if opt.Tolerance == 0 {
		opt.Tolerance = 1e-9
	}
	alpha := opt.Alpha
	if wxx == nil {
		alpha = 1
	} else if alpha == 0 {
		alpha = 0.95
	}
	nx, ny := w.Rows(), w.Cols()
	rx := uniform(nx)
	ry := uniform(ny)
	tmpX := make([]float64, nx)
	prevX := make([]float64, nx)
	for it := 0; it < opt.MaxIter; it++ {
		copy(prevX, rx)
		w.MulVecT(rx, ry)
		normalize1(ry)
		w.MulVec(ry, rx)
		if wxx != nil && alpha < 1 {
			wxx.MulVec(prevX, tmpX)
			sparse.ParRange(nx, nx, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					rx[i] = alpha*rx[i] + (1-alpha)*tmpX[i]
				}
			})
		}
		normalize1(rx)
		if sparse.MaxAbsDiff(prevX, rx) < opt.Tolerance {
			break
		}
	}
	return BiRank{X: rx, Y: ry}
}

// ConditionalRank restricts the bi-typed network to the given target
// objects (e.g. the conferences currently assigned to one cluster),
// ranks within the sub-network, and returns rank distributions over the
// *full* X and Y index spaces (targets outside the cluster get rank 0;
// attribute ranks are smoothed nowhere — smoothing is the caller's
// concern). This is the "conditional rank" building block of RankClus.
func ConditionalRank(w, wxx *sparse.Matrix, members []int, authority bool, opt AuthorityOptions) BiRank {
	sub := restrictRows(w, members)
	var br BiRank
	if authority {
		var subXX *sparse.Matrix
		if wxx != nil {
			subXX = restrictBoth(wxx, members)
		}
		br = AuthorityRanking(sub, subXX, opt)
	} else {
		br = SimpleRanking(sub)
	}
	full := BiRank{X: make([]float64, w.Rows()), Y: br.Y}
	for i, m := range members {
		full.X[m] = br.X[i]
	}
	return full
}

// restrictRows keeps only the given rows of w (in order), producing a
// len(members)×Cols matrix.
func restrictRows(w *sparse.Matrix, members []int) *sparse.Matrix {
	var entries []sparse.Coord
	for i, m := range members {
		w.Row(m, func(c int, v float64) {
			entries = append(entries, sparse.Coord{Row: i, Col: c, Val: v})
		})
	}
	return sparse.NewFromCoords(len(members), w.Cols(), entries)
}

// restrictBoth keeps the given rows and columns of a square matrix.
func restrictBoth(w *sparse.Matrix, members []int) *sparse.Matrix {
	pos := make(map[int]int, len(members))
	for i, m := range members {
		pos[m] = i
	}
	var entries []sparse.Coord
	for i, m := range members {
		w.Row(m, func(c int, v float64) {
			if j, ok := pos[c]; ok {
				entries = append(entries, sparse.Coord{Row: i, Col: j, Val: v})
			}
		})
	}
	return sparse.NewFromCoords(len(members), len(members), entries)
}

func uniform(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 / float64(n)
	}
	return v
}

func sum(xs []float64) float64 {
	return sparse.ParReduce(len(xs), len(xs), func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += xs[i]
		}
		return s
	})
}

func normalize1(xs []float64) {
	if s := sum(xs); s > 0 {
		sparse.ScaleVec(1/s, xs)
	}
}

func normalize2(xs []float64) {
	if n := sparse.Norm2(xs); n > 0 {
		sparse.ScaleVec(1/n, xs)
	}
}
