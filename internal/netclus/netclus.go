// Package netclus implements NetClus (Sun, Yu, Han — KDD'09),
// ranking-based clustering for information networks with a *star*
// schema: a center type (papers) whose objects each link to attribute
// objects of several types (authors, venues, terms). Where RankClus
// handles one attribute type, NetClus models the full star and produces
// "net-clusters" — sub-networks with their own conditional rank
// distributions per attribute type.
//
// Generative model: net-cluster k owns a rank distribution p(o | T, k)
// for every attribute type T; a center object d in cluster k generates
// its attribute links independently:
//
//	p(d | k) = Π_T Π_{(o,w) ∈ links_T(d)} p_λ(o | T, k)^w
//
// where p_λ mixes the conditional distribution with a background model
// (the global rank distribution) at rate λ_B, exactly as NetClus smooths
// against the "background cluster". The algorithm alternates:
//
//  1. conditional ranking of attribute objects inside each current
//     net-cluster (authority ranking between the first two attribute
//     types through the center, simple ranking for the rest);
//  2. EM posterior estimation p(k | d) for every center object;
//  3. reassignment of center objects to their argmax cluster.
//
// Attribute objects receive posteriors by propagating the center
// posteriors across their links, which is how the DBLP case study
// labels authors and venues with research areas.
//
// A fitted Model keeps the fit's results: the hard clusters of centers
// and attribute objects, the rank distributions, the prior and the
// likelihood. The soft posteriors are the fit's scratch; each attribute
// object's label is their argmax, taken once when the fit ends.
package netclus

import (
	"context"
	"math"

	"hinet/internal/hin"
	"hinet/internal/rank"
	"hinet/internal/sparse"
	"hinet/internal/stats"
)

// Options configures a NetClus run.
type Options struct {
	K         int     // number of net-clusters (required, ≥ 2)
	LambdaB   float64 // background mixing weight, default 0.2
	EMIter    int     // EM rounds per outer iteration, default 5
	MaxIter   int     // outer iteration cap, default 30
	Authority bool    // authority ranking between attr types 0 and 1 (default simple everywhere)
	Restarts  int     // random restarts, best by log-likelihood; default 1
}

func (o Options) withDefaults() Options {
	if o.LambdaB == 0 {
		o.LambdaB = 0.2
	}
	if o.EMIter == 0 {
		o.EMIter = 5
	}
	if o.MaxIter == 0 {
		o.MaxIter = 30
	}
	if o.Restarts == 0 {
		o.Restarts = 1
	}
	return o
}

// Model is a fitted NetClus model.
type Model struct {
	K int

	// AssignCenter[d] is the hard cluster of center object d: the argmax
	// of its posterior in the last EM pass (with reseedEmpty's moves).
	AssignCenter []int

	// attrAssign[t][o] is the hard cluster of attribute object o of type
	// t: the argmax of the posterior it gets from the final center
	// posteriors across its links, normalized. Read through AssignAttr.
	attrAssign [][]int

	// RankDist[t][k] is p(o | attribute-type t, cluster k) over the
	// objects of attribute type t (sums to 1).
	RankDist [][][]float64

	// Background[t] is the global rank distribution of type t.
	Background [][]float64

	// Prior is the cluster prior p(k) from the final EM pass.
	Prior []float64

	LogLikelihood float64
	Iterations    int
	Converged     bool
}

// AssignAttr returns hard cluster labels for attribute type t. The
// slice is the model's own: callers read it and do not modify it.
func (m *Model) AssignAttr(t int) []int { return m.attrAssign[t] }

// TopAttr returns the n top-ranked objects of attribute type t in
// cluster k.
func (m *Model) TopAttr(t, k, n int) []int { return stats.TopK(m.RankDist[t][k], n) }

// fit is one restart's Model beside the soft posteriors it was fitted
// from, each row-major with K entries an object: the last EM pass's
// center posteriors, and the attribute posteriors propagated from them.
// Run returns the Model and drops the rest.
type fit struct {
	*Model
	post     []float64   // post[d*K+c] = p(c | d)
	attrPost [][]float64 // attrPost[t][o*K+c], normalized over c
}

// Run fits NetClus to a star-schema network.
func Run(rng *stats.RNG, star *hin.Star, opt Options) *Model {
	return run(rng, star, opt).Model
}

// run is Run with the chosen restart's posteriors still attached.
func run(rng *stats.RNG, star *hin.Star, opt Options) *fit {
	opt = opt.withDefaults()
	if opt.K < 2 {
		panic("netclus: K must be >= 2")
	}
	var best *fit
	for r := 0; r < opt.Restarts; r++ {
		f := runOnce(rng, star, opt)
		if best == nil || f.LogLikelihood > best.LogLikelihood {
			best = f
		}
	}
	return best
}

func runOnce(rng *stats.RNG, star *hin.Star, opt Options) *fit {
	k := opt.K
	nd := 0
	if len(star.Rel) > 0 {
		nd = star.Rel[0].Rows()
	}
	nt := len(star.Rel)
	m := &Model{K: k}
	if nd == 0 {
		m.Converged = true
		return &fit{Model: m}
	}

	// Background distributions: global simple rank per attribute type.
	m.Background = make([][]float64, nt)
	for t := 0; t < nt; t++ {
		m.Background[t] = rank.SimpleRanking(star.Rel[t]).Y
	}

	assign := make([]int, nd)
	for d := range assign {
		assign[d] = rng.Intn(k)
	}
	prior := make([]float64, k)
	for i := range prior {
		prior[i] = 1 / float64(k)
	}
	post := make([]float64, nd*k)
	prev := make([]int, nd)
	s := newScorer(star, k)

	for it := 1; it <= opt.MaxIter; it++ {
		copy(prev, assign)

		// Step 1: conditional rank distributions per cluster, and the
		// round's log-probability table read by every EM pass below.
		m.RankDist = conditionalRanks(star, assign, k, opt)
		s.fill(m.RankDist, m.Background, opt.LambdaB)

		// Step 2: EM over center objects. Posteriors of distinct center
		// objects are independent, so the E-step fans out over the
		// sparse worker pool; the prior M-step re-aggregates serially in
		// object order, keeping the update deterministic.
		for em := 0; em < opt.EMIter; em++ {
			s.setPrior(prior)
			s.posteriors(post)
			newPrior := make([]float64, k)
			for d := 0; d < nd; d++ {
				for c := 0; c < k; c++ {
					newPrior[c] += post[d*k+c]
				}
			}
			for c := 0; c < k; c++ {
				prior[c] = newPrior[c] / float64(nd)
			}
		}

		// Step 3: hard reassignment.
		for d := 0; d < nd; d++ {
			assign[d] = stats.ArgMax(post[d*k:][:k])
		}
		reseedEmpty(rng, assign, k, nd)

		m.Iterations = it
		if equal(prev, assign) {
			m.Converged = true
			break
		}
	}

	// Final ranking pass + likelihood + attribute labels.
	m.RankDist = conditionalRanks(star, assign, k, opt)
	m.AssignCenter = assign
	m.Prior = prior
	s.fill(m.RankDist, m.Background, opt.LambdaB)
	s.setPrior(prior)
	m.LogLikelihood = s.logLikelihood()

	f := &fit{Model: m, post: post, attrPost: make([][]float64, nt)}
	m.attrAssign = make([][]int, nt)
	for t, rel := range star.Rel {
		ap := make([]float64, rel.Cols()*k)
		for d := 0; d < nd; d++ {
			cols, vals := rel.RowEntries(d)
			pd := post[d*k:][:k]
			for i, o := range cols {
				w, row := vals[i], ap[int(o)*k:][:k]
				for c := range row {
					row[c] += w * pd[c]
				}
			}
		}
		labels := make([]int, rel.Cols())
		for o := range labels {
			row := ap[o*k:][:k]
			stats.Normalize(row)
			labels[o] = stats.ArgMax(row)
		}
		f.attrPost[t], m.attrAssign[t] = ap, labels
	}
	return f
}

// expWork prices one math.Exp or math.Log, with LogSumExp's loop around
// it, in the mat-vec multiply-adds the pool's grain is counted in: ≈ 18
// ns against ≈ 1.7 ns a mat-vec entry, while a link × cluster
// multiply-add from the table costs ≈ 1.2 ns and counts as one
// (BenchmarkEStepCrossover beside BenchmarkMatVecCrossover, 2-vCPU VM;
// table in docs/ARCHITECTURE.md).
const expWork = 10

// emWork estimates one EM pass over every center object in grain units:
// a multiply-add per link and cluster, and the 2k+1 exp/log that turn a
// center's scores into a posterior (LogSumExp, then one Exp per
// cluster).
func emWork(star *hin.Star, k int) int {
	w := 0
	for _, rel := range star.Rel {
		w += rel.NNZ() * k
	}
	return w + star.Rel[0].Rows()*(2*k+1)*expWork
}

// scorer is what an EM pass and the final likelihood read for every
// center object: a table of the round's smoothed log-probabilities and
// the pass's log prior. The rank distributions are fixed for a whole
// round, so each log is taken once per attribute object and cluster
// rather than once per link and cluster in every pass.
type scorer struct {
	rels     []*sparse.Matrix
	k        int
	logp     [][]float64 // logp[t][o*k+c] = log((1-λ)·RankDist[t][c][o] + λ·Background[t][o] + 1e-300)
	logPrior []float64   // log(prior[c] + 1e-300)
	work     int         // emWork: one pass's estimate for the pool
}

func newScorer(star *hin.Star, k int) *scorer {
	s := &scorer{
		rels:     star.Rel,
		k:        k,
		logp:     make([][]float64, len(star.Rel)),
		logPrior: make([]float64, k),
		work:     emWork(star, k),
	}
	for t, rel := range star.Rel {
		s.logp[t] = make([]float64, rel.Cols()*k)
	}
	return s
}

// fill builds the round's table from its rank distributions.
func (s *scorer) fill(rankDist [][][]float64, background [][]float64, lambda float64) {
	k := s.k
	for t, tab := range s.logp {
		bg := background[t]
		for c := 0; c < k; c++ {
			dist := rankDist[t][c]
			for o := range bg {
				mix := (1-lambda)*dist[o] + lambda*bg[o]
				tab[o*k+c] = math.Log(mix + 1e-300)
			}
		}
	}
}

// setPrior takes the logs of a pass's cluster prior.
func (s *scorer) setPrior(prior []float64) {
	for c, v := range prior {
		s.logPrior[c] = math.Log(v + 1e-300)
	}
}

// score writes center object d's unnormalized log-posterior over the
// clusters into lp: the log prior, then each link's weight times its
// object's table row, in row order.
func (s *scorer) score(d int, lp []float64) {
	k := s.k
	copy(lp, s.logPrior)
	for t, rel := range s.rels {
		cols, vals := rel.RowEntries(d)
		tab := s.logp[t]
		for i, o := range cols {
			w, row := vals[i], tab[int(o)*k:][:len(lp)]
			for c := range lp {
				lp[c] += w * row[c]
			}
		}
	}
}

// posteriors is the E-step: every center object's posterior over the
// clusters, post[d*k+c] = p(c | d), from the table and the log prior.
func (s *scorer) posteriors(post []float64) {
	k := s.k
	sparse.ParRange(len(post)/k, s.work, func(lo, hi int) {
		lp := make([]float64, k)
		for d := lo; d < hi; d++ {
			s.score(d, lp)
			lse := stats.LogSumExp(lp)
			pd := post[d*k:][:k]
			for c := range lp {
				pd[c] = math.Exp(lp[c] - lse)
			}
		}
	})
}

// logLikelihood is Σ_d log Σ_c p(c)·p(d | c) over the center objects,
// from the table and the log prior.
func (s *scorer) logLikelihood() float64 {
	return sparse.ParReduce(s.rels[0].Rows(), s.work, func(lo, hi int) float64 {
		ll := 0.0
		lp := make([]float64, s.k)
		for d := lo; d < hi; d++ {
			s.score(d, lp)
			ll += stats.LogSumExp(lp)
		}
		return ll
	})
}

// conditionalRanks computes p(o|T,k) for every attribute type and
// cluster. With opt.Authority and ≥ 2 attribute types, types 0 and 1
// are ranked by authority propagation through the composite
// attr0×attr1 matrix restricted to in-cluster centers; all other types
// use in-cluster simple (degree) ranking, following the NetClus setup
// where authors/venues reinforce each other and terms are counted.
func conditionalRanks(star *hin.Star, assign []int, k int, opt Options) [][][]float64 {
	nt := len(star.Rel)
	out := make([][][]float64, nt)
	members := make([][]int, k)
	for d, c := range assign {
		members[c] = append(members[c], d)
	}
	for t := 0; t < nt; t++ {
		no := star.Rel[t].Cols()
		out[t] = make([][]float64, k)
		for c := 0; c < k; c++ {
			out[t][c] = make([]float64, no)
		}
	}
	// Simple in-cluster degree ranks for every type.
	for t := 0; t < nt; t++ {
		rel := star.Rel[t]
		for d, c := range assign {
			cols, vals := rel.RowEntries(d)
			dist := out[t][c]
			for i, o := range cols {
				dist[o] += vals[i]
			}
		}
		for c := 0; c < k; c++ {
			stats.Normalize(out[t][c])
		}
	}
	if opt.Authority && nt >= 2 {
		// Clusters are ranked independently; fan them out over the
		// sparse worker pool (each iteration is itself a chain of
		// parallel kernel calls, which the pool nests safely). The work
		// estimate scales the one-pass link cost by authority ranking's
		// ~100-iteration fixed-point budget.
		sparse.ParRange(k, (star.Rel[0].NNZ()+star.Rel[1].NNZ())*100, func(lo, hi int) {
			for c := lo; c < hi; c++ {
				sub0 := restrictRows(star.Rel[0], members[c])
				sub1 := restrictRows(star.Rel[1], members[c])
				// attr0 × attr1 composite within the cluster.
				comp, _ := sub0.Transpose().MulCtx(context.Background(), sub1) // never cancelled: cannot fail
				br := rank.AuthorityRanking(comp, nil, rank.AuthorityOptions{})
				copy(out[0][c], br.X)
				copy(out[1][c], br.Y)
			}
		})
	}
	return out
}

func restrictRows(w *sparse.Matrix, rows []int) *sparse.Matrix {
	var entries []sparse.Coord
	for i, r := range rows {
		cols, vals := w.RowEntries(r)
		for j, c := range cols {
			entries = append(entries, sparse.Coord{Row: i, Col: int(c), Val: vals[j]})
		}
	}
	return sparse.NewFromCoords(len(rows), w.Cols(), entries)
}

func reseedEmpty(rng *stats.RNG, assign []int, k, n int) {
	counts := make([]int, k)
	for _, c := range assign {
		counts[c]++
	}
	for c := 0; c < k; c++ {
		if counts[c] > 0 {
			continue
		}
		// Move one object out of a random multi-member cluster; when no
		// donor exists (fewer centers than clusters) the cluster stays
		// empty.
		start := rng.Intn(n)
		for off := 0; off < n; off++ {
			d := (start + off) % n
			if counts[assign[d]] > 1 {
				counts[assign[d]]--
				assign[d] = c
				counts[c]++
				break
			}
		}
	}
}

func equal(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
