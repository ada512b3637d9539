// Package stats provides small deterministic statistical utilities shared
// by the generators and algorithms in this repository: a seeded RNG
// wrapper, Zipf and categorical samplers, and numerically careful
// aggregation helpers.
//
// Everything here is intentionally dependency-free (stdlib only) because
// the reproduction targets an offline build; the iterative numeric kernels
// the paper's algorithms need are hand-rolled on top of these primitives.
package stats

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// RNG is a deterministic random source. It wraps math/rand.Rand so that
// every generator in the repository can be seeded explicitly and replayed.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Poisson returns a Poisson variate with mean lambda using Knuth's method
// for small lambda and a normal approximation for large lambda.
func (g *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation with continuity correction.
		v := g.NormFloat64()*math.Sqrt(lambda) + lambda
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= g.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Zipf draws integers in [0, n) with P(i) proportional to 1/(i+1)^s.
// It precomputes the CDF so draws are O(log n).
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf builds a Zipf sampler over n items with exponent s (> 0).
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: Zipf needs n > 0")
	}
	cdf := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Draw returns the next Zipf-distributed index.
func (z *Zipf) Draw() int {
	u := z.rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Categorical draws indices with the given (unnormalized) weights.
type Categorical struct {
	cdf []float64
	rng *RNG
}

// NewCategorical builds a sampler over weights. Negative weights panic;
// all-zero weights yield a uniform distribution.
func NewCategorical(rng *RNG, weights []float64) *Categorical {
	cdf := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("stats: negative categorical weight")
		}
		total += w
		cdf[i] = total
	}
	if total == 0 {
		for i := range cdf {
			cdf[i] = float64(i+1) / float64(len(cdf))
		}
	} else {
		for i := range cdf {
			cdf[i] /= total
		}
	}
	return &Categorical{cdf: cdf, rng: rng}
}

// Draw returns the next category index.
func (c *Categorical) Draw() int {
	u := c.rng.Float64()
	i := sort.SearchFloat64s(c.cdf, u)
	if i >= len(c.cdf) {
		i = len(c.cdf) - 1
	}
	return i
}

// LogSumExp returns log(sum(exp(xs))) guarding against overflow.
// It returns -Inf for an empty slice.
func LogSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	maxV := xs[0]
	for _, x := range xs[1:] {
		if x > maxV {
			maxV = x
		}
	}
	if math.IsInf(maxV, -1) {
		return maxV
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Exp(x - maxV)
	}
	return maxV + math.Log(sum)
}

// Normalize scales xs in place so it sums to 1. If the sum is zero it
// sets the uniform distribution. It returns the original sum.
func Normalize(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	if sum == 0 {
		if len(xs) > 0 {
			u := 1 / float64(len(xs))
			for i := range xs {
				xs[i] = u
			}
		}
		return 0
	}
	for i := range xs {
		xs[i] /= sum
	}
	return sum
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (0 for n < 2).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Entropy returns the Shannon entropy (nats) of a distribution given as
// non-negative weights; the weights are normalized internally.
func Entropy(p []float64) float64 {
	total := 0.0
	for _, v := range p {
		total += v
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, v := range p {
		if v > 0 {
			q := v / total
			h -= q * math.Log(q)
		}
	}
	return h
}

// KLDivergence returns KL(p || q) in nats over distributions given as
// weights; both are normalized internally and q is smoothed by eps to
// keep the divergence finite.
func KLDivergence(p, q []float64, eps float64) float64 {
	if len(p) != len(q) {
		panic("stats: KL length mismatch")
	}
	ps := append([]float64(nil), p...)
	qs := make([]float64, len(q))
	for i, v := range q {
		qs[i] = v + eps
	}
	Normalize(ps)
	Normalize(qs)
	d := 0.0
	for i := range ps {
		if ps[i] > 0 {
			d += ps[i] * math.Log(ps[i]/qs[i])
		}
	}
	return d
}

// CosineSim returns the cosine similarity of two equal-length vectors.
// Zero vectors have similarity 0.
func CosineSim(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: cosine length mismatch")
	}
	dot, na, nb := 0.0, 0.0, 0.0
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// L1Distance returns the L1 distance between equal-length vectors.
func L1Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: L1 length mismatch")
	}
	d := 0.0
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}

// ArgMax returns the index of the largest element (first on ties) and -1
// for empty input.
func ArgMax(xs []float64) int {
	best := -1
	bv := math.Inf(-1)
	for i, x := range xs {
		if x > bv {
			bv = x
			best = i
		}
	}
	return best
}

// BoundedOffer offers v to a k-bounded selection held in h, a min-heap
// whose root is the worst retained element under worse(a, b) ("a ranks
// strictly below b"). While fewer than k elements are held v is pushed;
// afterwards v replaces the root only if the root is worse than v.
// Returns the updated heap (h's backing array is reused; pass a
// pre-sized buffer to select without allocating). Offering every
// candidate of a stream and sorting the survivors reproduces a full
// sort-then-truncate top-k exactly — ties included, provided worse is a
// strict total order. It suits k ≪ n — almost every candidate is turned
// away by its one compare with the root — which is stats.TopK and a
// shard's Rank over a dense score vector; PathSim rows, where k is a
// sizeable share of the candidates, select by threshold instead
// (internal/pathsim/select.go).
func BoundedOffer[T any](h []T, k int, v T, worse func(a, b T) bool) []T {
	if len(h) < k {
		h = append(h, v)
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !worse(h[i], h[parent]) {
				break
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
		return h
	}
	if !worse(h[0], v) {
		return h
	}
	h[0] = v
	i := 0
	for {
		l := 2*i + 1
		if l >= len(h) {
			return h
		}
		if r := l + 1; r < len(h) && worse(h[r], h[l]) {
			l = r
		}
		if !worse(h[l], h[i]) {
			return h
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

// TopK returns the indices of the k largest values in xs, descending.
// Ties break by lower index. k is clamped to [0, len(xs)]. Selection is
// a bounded min-heap partial sort — O(n·log k) with k-sized scratch
// instead of sorting an n-sized index permutation — matching the
// stable-full-sort order exactly (score descending, ties by index).
func TopK(xs []float64, k int) []int {
	if k > len(xs) {
		k = len(xs)
	}
	if k <= 0 {
		return []int{}
	}
	// Index a outranks b when xs[a] > xs[b], or a < b at equal values.
	worse := func(a, b int) bool {
		if xs[a] != xs[b] {
			return xs[a] < xs[b]
		}
		return a > b
	}
	h := make([]int, 0, k)
	for i := range xs {
		h = BoundedOffer(h, k, i, worse)
	}
	slices.SortFunc(h, func(a, b int) int {
		if xs[a] != xs[b] {
			return cmp.Compare(xs[b], xs[a])
		}
		return cmp.Compare(a, b)
	})
	return h
}
