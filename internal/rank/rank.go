// Package rank implements the link-based ranking algorithms the tutorial
// covers for homogeneous networks (§2b.ii–iii) — PageRank, Personalized
// PageRank and HITS — plus the two conditional ranking functions for
// bi-typed networks that RankClus (§4c) integrates with clustering:
// simple ranking and authority ranking.
//
// All iterations are hand-rolled over the CSR matrices in
// internal/sparse — power iterations, conjugate gradients for PageRank
// on an undirected graph, and LOBPCG with a 3×3 Jacobi Rayleigh–Ritz for
// HITS, on A·Aᵀ or, for a symmetric nonnegative graph with a positive
// diagonal (the co-author graph), on A itself; no external numeric
// library is used. On the co-author graph every step of either rank is
// one row gather of A (MulVec). The matrix products (and
// the power iteration's element-wise and reduction loops) run on
// sparse's shared parallel worker pool, so large networks use every
// core while a graph too small to be worth a hand-off (see
// sparse.SerialThreshold) iterates on the goroutine that asked. The
// vector loops and dot products of CG and LOBPCG are serial, so their
// bits do not depend on the schedule and a step allocates nothing.
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
	Tolerance float64 // convergence threshold (default 1e-9; see PageRank and HITS)

	// Start warm-starts the iteration from a previous solution
	// instead of the restart distribution. The fixed point is the same
	// — PageRank's stationary distribution does not depend on the
	// starting vector — and starting near it (e.g. from the previous
	// epoch's scores after a small delta batch) usually converges in
	// fewer iterations, which is what the incremental ingestion path
	// exploits (not always: the error of a warm start may sit on a
	// slowly decaying mode that a cold start barely excites;
	// docs/ARCHITECTURE.md has the measured spread). On an undirected
	// graph it is CG's starting point, scaled to fit. The vector is
	// copied and L1-normalized; it is ignored when its length does not
	// match the matrix or it has no positive mass, so callers can pass a
	// stale vector unconditionally. HITS takes it as the initial hub
	// vector (L2-normalized, same guard), LOBPCG's starting point.
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
// output sums to 1.
//
// A directed graph (or a negative weight, or Damping ≥ 1) runs the power
// iteration, which stops on an L∞ step under Tolerance. An undirected
// one — adj symmetric, no negative weight — is a symmetric positive
// definite linear solve, and runs conjugate gradients toward the same
// fixed point in fewer steps (see cg); it stops on a residual bound,
// ‖t − My‖∞ ≤ Tolerance·(1−d)·Σy, which holds the scores closer to the
// fixed point than the power iteration's test does. Either way
// Iterations counts mat-vecs.
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
	// the dangling mass. The same sweep notes any negative weight: a
	// symmetric graph with none is undirected, and runs CG (see cg).
	inv := make([]float64, n)
	var dangling []int
	nonneg := true
	for r := 0; r < n; r++ {
		_, vals := adj.RowEntries(r)
		s := 0.0
		for _, v := range vals {
			s += v
			nonneg = nonneg && v >= 0
		}
		if s != 0 {
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
	d := opt.Damping
	if d < 1 && nonneg && adj.Symmetric() {
		return cg(adj, inv, tele, x, opt)
	}
	next := make([]float64, n)
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
		// One pass finishes the update and takes the L∞ step from x in the
		// same sweep (a max is order-independent, so blocks change no bit).
		step := sparse.ParReduceMax(n, n, func(lo, hi int) float64 {
			m := 0.0
			for i := lo; i < hi; i++ {
				next[i] = d*(next[i]+dm*tele[i]) + (1-d)*tele[i]
				if diff := math.Abs(x[i] - next[i]); diff > m {
					m = diff
				}
			}
			return m
		})
		if step < opt.Tolerance {
			copy(x, next)
			return Result{Scores: x, Iterations: it, Converged: true}
		}
		x, next = next, x
	}
	return Result{Scores: x, Iterations: opt.MaxIter, Converged: false}
}

// cg solves PageRank on an undirected graph — adj symmetric with no
// negative weight, d < 1 — as the linear system M·y = t, M = I − d·A·D⁻¹
// (A = adj, D its row sums, t = tele), and returns x = y/Σy. Sending the
// dangling mass along t, as the power iteration does, makes x exactly
// its fixed point (Del Corso, Gullì & Romani 2005): a dangling row of a
// symmetric graph is also a zero column, so Σ A·D⁻¹x is the non-dangling
// mass and y/Σy satisfies x = d·(Pᵀx + danglingMass·t) + (1−d)·t. A
// dangling row has inv = 1 and solves as yᵢ = tᵢ.
//
// M is self-adjoint and positive definite in the inner product
// ⟨u, v⟩ = Σ uᵢvᵢ·invᵢ (D⁻¹ − d·D⁻¹AD⁻¹ is symmetric, and the walk's
// eigenvalues lie in [−1, 1]), so conjugate gradients run on it as is,
// with no square roots. A step costs one mat-vec and two weighted dot
// products. The mat-vec is the row gather A·z, z = D⁻¹p, kept beside p
// by the loop that updates it: A is symmetric, so A·D⁻¹ needs neither
// the transpose nor the scatter form the power iteration's Pᵀx takes
// (MulVecTNorm). Unlike a fixed polynomial over a bound on the
// spectrum, CG adapts to the spectrum the graph has. y arrives holding
// the start x̂ (L1-normalized) and is scaled to y₀ = c·x̂ with the
// Galerkin c = ⟨x̂, t⟩ / ⟨x̂, Mx̂⟩, which costs nothing: the first
// residual needs Mx̂ anyway. The run stops once ‖t − My‖∞ ≤
// Tolerance·(1−d)·Σy. Iterations counts mat-vecs, the first included.
// The vector loops are serial, so a step allocates nothing and the bits
// do not depend on the schedule.
func cg(adj *sparse.Matrix, inv, t, y []float64, opt Options) Result {
	n, d := len(y), opt.Damping
	w := make([]float64, 4*n)
	r, p, q, z := w[:n], w[n:2*n], w[2*n:3*n], w[3*n:]
	// q = M·p given z = D⁻¹p, returning ⟨u, M·p⟩.
	apply := func(u, p []float64) float64 {
		adj.MulVec(z, q)
		s := 0.0
		for i := range q {
			q[i] = p[i] - d*q[i]
			s += u[i] * inv[i] * q[i]
		}
		return s
	}
	for i := range y {
		z[i] = inv[i] * y[i]
	}
	xmx := apply(y, y)
	c := 0.0
	for i := range y {
		c += y[i] * inv[i] * t[i]
	}
	c /= xmx
	rr, rmax, sy := 0.0, 0.0, 0.0
	for i := range y {
		y[i] *= c
		r[i] = t[i] - c*q[i]
		p[i] = r[i]
		z[i] = inv[i] * p[i]
		rr += r[i] * r[i] * inv[i]
		rmax = max(rmax, math.Abs(r[i]))
		sy += y[i]
	}
	it := 1
	for ; rmax > opt.Tolerance*(1-d)*sy; it++ {
		if it == opt.MaxIter {
			scale(1/sy, y)
			return Result{Scores: y, Iterations: it, Converged: false}
		}
		alpha := rr / apply(p, p)
		rr0 := rr
		rr, rmax, sy = 0, 0, 0
		for i := range y {
			y[i] += alpha * p[i]
			r[i] -= alpha * q[i]
			rr += r[i] * r[i] * inv[i]
			rmax = max(rmax, math.Abs(r[i]))
			sy += y[i]
		}
		beta := rr / rr0
		for i := range p {
			p[i] = r[i] + beta*p[i]
			z[i] = inv[i] * p[i]
		}
	}
	scale(1/sy, y)
	return Result{Scores: y, Iterations: it, Converged: true}
}

// HITSResult carries the two HITS vectors.
type HITSResult struct {
	Authority  []float64
	Hub        []float64
	Iterations int
	Converged  bool
}

// HITS computes hub and authority scores: the principal eigenvectors of
// A·Aᵀ and Aᵀ·A, the fixed point of the mutual-reinforcement iteration
// a ← Aᵀh, h ← Aa with L2 normalization each round. It starts from the
// uniform hub vector or, warm, from opt.Start (a previous solution's
// hubs: the fixed point does not depend on where the iteration starts).
//
// The hubs are the top eigenvector of B, found by LOBPCG (see lobpcg),
// which needs about the square root of the power iteration's steps. B
// is A·Aᵀ, unless A is symmetric with no negative weight and a positive
// diagonal on every nonzero row (the co-author graph: an author shares
// every paper with themselves). Then A·Aᵀ = A², and by Perron–Frobenius
// A's largest eigenvalue ρ is also its largest in magnitude: the
// diagonal makes every component aperiodic, so every other eigenvalue
// of a component lies strictly inside its Perron root, where a
// bipartite component would also have −ρ. So A² and A have the same
// top eigenvector, hubs and authorities are both that vector, and B is
// A itself, one mat-vec a step. Once LOBPCG's residual is under
// Tolerance, ordinary power rounds — a ← Aᵀh, h ← Aa, or x ← Ax when
// B = A — finish the job, and the first whose L∞ step in the authority
// vector is under Tolerance sets Converged: the test the power iteration
// stops on. (On A the first round's Ax is LOBPCG's last image, so it
// costs nothing.) Iterations counts applications of B (on A·Aᵀ one
// MulVecT and one MulVec each, on A one MulVec): LOBPCG's steps and the
// closing rounds together, capped at MaxIter. When B = A, Hub and
// Authority are the same slice.
func HITS(adj *sparse.Matrix, opt Options) HITSResult {
	opt = opt.withDefaults()
	n := adj.Rows()
	if adj.Cols() != n {
		panic("rank: HITS needs a square matrix")
	}
	if n == 0 {
		return HITSResult{Converged: true}
	}
	h := make([]float64, n)
	for i := range h {
		h[i] = 1 / math.Sqrt(float64(n))
	}
	if len(opt.Start) == n && sparse.Norm2(opt.Start) > 0 {
		copy(h, opt.Start)
		normalize2(h)
	}
	if perron(adj) {
		return hitsOnA(adj, h, opt)
	}
	return hitsOnAAT(adj, h, opt)
}

// hitsOnA is HITS with B = A from the unit hub vector h: LOBPCG, then
// power rounds x ← Ax. LOBPCG hands back Ax beside x, so the first
// round's step costs no mat-vec.
func hitsOnA(adj *sparse.Matrix, h []float64, opt Options) HITSResult {
	ah, it := lobpcg(adj, h, nil, opt.MaxIter, opt.Tolerance)
	for {
		normalize2(ah)
		step := maxAbsDiff(h, ah)
		copy(h, ah)
		if step < opt.Tolerance || it == opt.MaxIter {
			return HITSResult{Authority: h, Hub: h, Iterations: it, Converged: step < opt.Tolerance}
		}
		adj.MulVec(h, ah)
		it++
	}
}

// hitsOnAAT is HITS with B = A·Aᵀ from the unit hub vector h: LOBPCG,
// then power rounds a ← Aᵀh, h ← Aa.
func hitsOnAAT(adj *sparse.Matrix, h []float64, opt Options) HITSResult {
	a := make([]float64, len(h))
	bx, it := lobpcg(adj, h, a, opt.MaxIter, opt.Tolerance)
	// The power step from LOBPCG's vector is already in hand: a = Aᵀh
	// and Bh = A·a.
	copy(h, bx)
	normalize2(a)
	normalize2(h)
	prevA := bx
	for ; it < opt.MaxIter; it++ {
		copy(prevA, a)
		adj.MulVecT(h, a) // authority from in-links
		normalize2(a)
		adj.MulVec(a, h) // hub from out-links
		normalize2(h)
		if maxAbsDiff(prevA, a) < opt.Tolerance {
			return HITSResult{Authority: a, Hub: h, Iterations: it + 1, Converged: true}
		}
	}
	return HITSResult{Authority: a, Hub: h, Iterations: it, Converged: false}
}

// perron reports whether HITS on adj may take B = A: no negative weight,
// a positive diagonal on every nonzero row, and adj symmetric. The first
// two cost one pass over the entries (a graph without self-loops fails
// on its first nonzero row), the last nothing for a Gram product (see
// sparse.Matrix.Symmetric).
func perron(adj *sparse.Matrix) bool {
	for r := 0; r < adj.Rows(); r++ {
		idx, vals := adj.RowEntries(r)
		diag := len(idx) == 0
		for k, c := range idx {
			if vals[k] < 0 {
				return false
			}
			diag = diag || int(c) == r && vals[k] > 0
		}
		if !diag {
			return false
		}
	}
	return adj.Symmetric()
}

// applyB sets bv = B·v: bv = A·v when av is nil (B = A), else av = Aᵀv
// and bv = A·av (B = A·Aᵀ).
func applyB(adj *sparse.Matrix, v, av, bv []float64) {
	if av == nil {
		adj.MulVec(v, bv)
		return
	}
	adj.MulVecT(v, av)
	adj.MulVec(av, bv)
}

// lobpcg runs single-vector LOBPCG (Knyazev, SIAM J. Sci. Comput. 2001)
// for the principal eigenvector of B from the unit vector x, until
// ‖Bx − λx‖ ≤ tol·λ (λ = xᵀBx) or maxIter applications of B. B is A·Aᵀ
// when ax is given and A when it is nil (see applyB). It leaves the
// answer in x and, for A·Aᵀ, its image Aᵀx in ax, and returns Bx and
// the applications made.
//
// Beside x it keeps the residual r = Bx − λx and the previous search
// direction p, each with its image Bv (and, for A·Aᵀ, Aᵀv). A step
// applies B once, to r; the images of x and p follow by the same linear
// combinations that make the new x and p, so they cost no application.
// p is orthogonalized against x and r, so the Rayleigh–Ritz problem over
// {x, r, p} is, after a diagonal scaling, the 3×3 symmetric
// eigenproblem on [sᵢᵀ B sⱼ], solved by Jacobi (topRitz). Like a Krylov
// method, it shrinks the error by about 1 − 2√δ a step, δ = 1 − λ₂/λ₁
// the relative eigengap, where the power iteration shrinks it by 1 − δ.
// The vectors are allocated once, so a step allocates nothing. The sign
// of a Ritz vector is free: x comes back turned to a nonnegative sum,
// the orientation of the Perron vector.
func lobpcg(adj *sparse.Matrix, x, ax []float64, maxIter int, tol float64) (bx []float64, it int) {
	n := len(x)
	var r, ar, br, p, ap, bp []float64
	if ax == nil {
		w := make([]float64, 5*n)
		bx, r, br, p, bp = w[:n], w[n:2*n], w[2*n:3*n], w[3*n:4*n], w[4*n:]
	} else {
		w := make([]float64, 7*n)
		bx, r, ar, br, p, ap, bp = w[:n], w[n:2*n], w[2*n:3*n], w[3*n:4*n], w[4*n:5*n], w[5*n:6*n], w[6*n:]
	}
	applyB(adj, x, ax, bx)
	it = 1
	pp0 := 0.0 // ‖p‖² before it is orthogonalized; 0 while there is no p
	for ; it < maxIter; it++ {
		// r is left unnormalized, and so is p: a diagonal scaling of the
		// 3×3 problem stands in for three passes over the vectors.
		lambda := sparse.Dot(x, bx)
		rr := 0.0
		for i := range r {
			r[i] = bx[i] - lambda*x[i]
			rr += r[i] * r[i]
		}
		if math.Sqrt(rr) <= tol*lambda {
			break
		}
		applyB(adj, r, ar, br)
		// g = [sᵢᵀ B sⱼ] over the unit basis x, r/‖r‖, p/‖p‖. Bx = λx + r,
		// so xᵀBr = ‖r‖ and, with p ⊥ x, r, xᵀBp = 0: taken as exact,
		// not summed, since λ·xᵀp — rounding times the largest
		// eigenvalue — would swamp the coupling a converging step needs.
		var g [3][3]float64
		g[0][0], g[0][1], g[1][1] = lambda, math.Sqrt(rr), sparse.Dot(r, br)/rr
		k, dr, dp := 2, 1/math.Sqrt(rr), 0.0
		if pp0 > 0 {
			// Orthogonalize p against x and r; drop it where it is all
			// but in their span and what is left would be rounding. (The
			// Aᵀ images, when kept, follow in a loop of their own.)
			cx, cr := sparse.Dot(x, p), sparse.Dot(r, p)/rr
			pp := 0.0
			for i := range p {
				p[i] -= cx*x[i] + cr*r[i]
				bp[i] -= cx*bx[i] + cr*br[i]
				pp += p[i] * p[i]
			}
			for i := range ap {
				ap[i] -= cx*ax[i] + cr*ar[i]
			}
			if pp > 1e-16*pp0 {
				k, dp = 3, 1/math.Sqrt(pp)
				g[1][2], g[2][2] = sparse.Dot(r, bp)*dr*dp, sparse.Dot(p, bp)*dp*dp
			}
		}
		c := topRitz(g, k)
		pp0 = c[1]*c[1] + c[2]*c[2]
		// p ← c₁r + c₂p, then x ← c₀x + p, each with its images.
		c1, c2 := c[1]*dr, c[2]*dp
		xx := 0.0
		for i := range x {
			pi, bpi := c1*r[i]+c2*p[i], c1*br[i]+c2*bp[i]
			p[i], bp[i] = pi, bpi
			x[i], bx[i] = c[0]*x[i]+pi, c[0]*bx[i]+bpi
			xx += x[i] * x[i]
		}
		for i := range ap {
			ap[i] = c1*ar[i] + c2*ap[i]
			ax[i] = c[0]*ax[i] + ap[i]
		}
		scale(1/math.Sqrt(xx), x, ax, bx)
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	if s < 0 {
		scale(-1, x, ax, bx)
	}
	return bx, it
}

// topRitz returns the unit eigenvector for the largest eigenvalue of the
// symmetric k×k matrix g (k ≤ 3; the upper triangle is read), by cyclic
// Jacobi rotations.
func topRitz(g [3][3]float64, k int) [3]float64 {
	var v [3][3]float64
	for i := range k {
		v[i][i] = 1
		for j := i + 1; j < k; j++ {
			g[j][i] = g[i][j]
		}
	}
	for sweep := 0; sweep < 32; sweep++ {
		rotated := false
		for p := 0; p < k-1; p++ {
			for q := p + 1; q < k; q++ {
				gpq := g[p][q]
				if math.Abs(gpq) <= 1e-18*(math.Abs(g[p][p])+math.Abs(g[q][q])) {
					continue
				}
				rotated = true
				// The rotation by t = tan φ that zeroes g[p][q].
				theta := (g[q][q] - g[p][p]) / (2 * gpq)
				t := 1 / (math.Abs(theta) + math.Hypot(theta, 1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Hypot(t, 1)
				s := t * c
				g[p][p] -= t * gpq
				g[q][q] += t * gpq
				g[p][q], g[q][p] = 0, 0
				for r := 0; r < k; r++ {
					if r != p && r != q {
						grp, grq := g[r][p], g[r][q]
						g[r][p], g[r][q] = c*grp-s*grq, s*grp+c*grq
						g[p][r], g[q][r] = g[r][p], g[r][q]
					}
					vrp, vrq := v[r][p], v[r][q]
					v[r][p], v[r][q] = c*vrp-s*vrq, s*vrp+c*vrq
				}
			}
		}
		if !rotated {
			break
		}
	}
	j := 0
	for i := 1; i < k; i++ {
		if g[i][i] > g[j][j] {
			j = i
		}
	}
	return [3]float64{v[0][j], v[1][j], v[2][j]}
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

// normalize2, scale and maxAbsDiff are HITS's element-wise steps, kept
// serial so that an iteration allocates nothing (the pool's helpers take
// a closure).
func normalize2(xs []float64) {
	if n := sparse.Norm2(xs); n > 0 {
		scale(1/n, xs)
	}
}

// scale multiplies every vs by f in place.
func scale(f float64, vs ...[]float64) {
	for _, v := range vs {
		for i := range v {
			v[i] *= f
		}
	}
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		m = max(m, math.Abs(a[i]-b[i]))
	}
	return m
}
