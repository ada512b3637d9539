// Package experiments wires workload generators, algorithms and metrics
// into the reproduction experiments E1–E16, one function each, whose doc
// comment names the published table it reconstructs. Each function
// returns the rows of one paper-style table; bench_test.go times the
// same computations and cmd/experiments prints them (README, Quickstart).
//
// The tutorial itself contains no tables (it is a survey); each
// experiment reconstructs the canonical result of the system the
// tutorial presents, on the synthetic substitutes of internal/dblp and
// internal/flickr. Quality numbers are therefore compared by *shape*
// (who wins, by roughly what factor) rather than absolute value.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"hinet/internal/classify"
	"hinet/internal/core"
	"hinet/internal/dblp"
	"hinet/internal/distinct"
	"hinet/internal/eval"
	"hinet/internal/flickr"
	"hinet/internal/hin"
	"hinet/internal/kmeans"
	"hinet/internal/netgen"
	"hinet/internal/rank"
	"hinet/internal/simrank"
	"hinet/internal/sparse"
	"hinet/internal/spectral"
	"hinet/internal/stats"
	"hinet/internal/truth"
)

// Row is one line of an experiment table: a label plus named metrics in
// column order.
type Row struct {
	Label   string
	Columns []string
	Values  []float64
}

// Format renders a row as "label  col=val col=val".
func (r Row) Format() string {
	s := fmt.Sprintf("%-34s", r.Label)
	for i, c := range r.Columns {
		s += fmt.Sprintf("  %s=%.4g", c, r.Values[i])
	}
	return s
}

// DefaultDBLP is the corpus configuration shared by the DBLP-based
// experiments (small enough for a 2-core box, structured like the
// four-area DBLP subset of the RankClus/NetClus studies).
func DefaultDBLP() dblp.Config {
	return dblp.Config{
		VenuesPerArea:  4,
		AuthorsPerArea: 100,
		TermsPerArea:   80,
		SharedTerms:    40,
		Papers:         1200,
		Years:          5,
	}
}

// E1RankClusCaseStudy reproduces the RankClus DBLP case study: cluster
// venues with integrated authority ranking and report cluster quality
// plus the area coherence of each cluster's top-ranked objects.
func E1RankClusCaseStudy(seed int64) []Row {
	c := dblp.Generate(stats.NewRNG(seed), DefaultDBLP())
	b := c.VenueAuthorBipartite()
	m := core.Run(stats.NewRNG(seed+1), b, core.Options{K: c.Areas(), Method: core.AuthorityRanking, Restarts: 3})
	nmi := eval.NMI(c.VenueArea, m.Assign)
	acc := eval.Accuracy(c.VenueArea, m.Assign)

	// Area coherence of top-ranked venues and authors per cluster.
	venueCoh, authorCoh := 0.0, 0.0
	for k := 0; k < m.K; k++ {
		domArea := dominantArea(m, c, k)
		vHit, aHit := 0, 0
		topV := m.TopX(k, 3)
		for _, v := range topV {
			if c.VenueArea[v] == domArea {
				vHit++
			}
		}
		topA := m.TopY(k, 10)
		for _, a := range topA {
			if c.AuthorArea[a] == domArea {
				aHit++
			}
		}
		venueCoh += float64(vHit) / float64(len(topV))
		authorCoh += float64(aHit) / float64(len(topA))
	}
	venueCoh /= float64(m.K)
	authorCoh /= float64(m.K)
	return []Row{{
		Label:   "RankClus(authority) on DBLP venues",
		Columns: []string{"NMI", "accuracy", "topVenueAreaCoh", "topAuthorAreaCoh"},
		Values:  []float64{nmi, acc, venueCoh, authorCoh},
	}}
}

func dominantArea(m *core.Model, c *dblp.Corpus, k int) int {
	votes := map[int]int{}
	for x, a := range m.Assign {
		if a == k {
			votes[c.VenueArea[x]]++
		}
	}
	best, bv := 0, -1
	for area, v := range votes {
		if v > bv {
			bv, best = v, area
		}
	}
	return best
}

// E2Config is one synthetic setting of the RankClus accuracy study
// (EDBT'09 Table 4): five datasets varying separability and density.
type E2Config struct {
	Name  string
	Cross float64
	Scale float64 // link-count multiplier
}

// E2Configs mirrors the paper's min/medium/max separation spread. The
// cross-link rates sit deliberately near the recovery threshold so the
// methods separate (at low noise every method is perfect and the table
// is uninformative).
func E2Configs() []E2Config {
	return []E2Config{
		{Name: "sep-high density-med", Cross: 0.20, Scale: 1},
		{Name: "sep-med  density-med", Cross: 0.35, Scale: 1},
		{Name: "sep-low  density-med", Cross: 0.45, Scale: 1},
		{Name: "sep-med  density-low", Cross: 0.35, Scale: 0.5},
		{Name: "sep-med  density-high", Cross: 0.35, Scale: 2},
	}
}

func e2Workload(seed int64, cfg E2Config) (*hin.Bipartite, []int) {
	c := netgen.MediumBiTyped()
	c.Cross = cfg.Cross
	for i := range c.Links {
		c.Links[i] = int(float64(c.Links[i]) * cfg.Scale)
	}
	res := netgen.BiTyped(stats.NewRNG(seed), c)
	return res.Net.Bipartite(res.X, res.Y), res.TruthX
}

// E2Accuracy compares RankClus (authority and simple ranking) against
// spectral N-cut on the venue graph and SimRank+k-means, the baselines
// of the RankClus evaluation, across the five synthetic settings.
// Scores are averaged over three generator seeds per setting.
func E2Accuracy(seed int64) []Row {
	var rows []Row
	const reps = 3
	for _, cfg := range E2Configs() {
		var vals [4]float64
		for r := int64(0); r < reps; r++ {
			b, truthX := e2Workload(seed+17*r, cfg)
			k := 3
			ra := core.Run(stats.NewRNG(seed+r+1), b, core.Options{K: k, Method: core.AuthorityRanking, Restarts: 3})
			rs := core.Run(stats.NewRNG(seed+r+1), b, core.Options{K: k, Method: core.SimpleRanking, Restarts: 3})
			sp := spectralBaseline(seed+r+2, b, k)
			sr := simrankBaseline(seed+r+3, b, k)
			vals[0] += eval.NMI(truthX, ra.Assign) / reps
			vals[1] += eval.NMI(truthX, rs.Assign) / reps
			vals[2] += eval.NMI(truthX, sp) / reps
			vals[3] += eval.NMI(truthX, sr) / reps
		}
		rows = append(rows, Row{
			Label:   cfg.Name,
			Columns: []string{"RankClus-auth", "RankClus-simple", "Spectral", "SimRank+km"},
			Values:  vals[:],
		})
	}
	return rows
}

// spectralBaseline clusters target objects by N-cut on the X–X graph
// induced by shared attribute neighbors (W·Wᵀ).
func spectralBaseline(seed int64, b *hin.Bipartite, k int) []int {
	xx, _ := b.W.MulCtx(context.Background(), b.W.Transpose()) // never cancelled: cannot fail
	return spectral.ClusterMatrix(stats.NewRNG(seed), xx, k, spectral.Options{}).Assign
}

// simrankBaseline clusters target objects by k-means on SimRank rows.
func simrankBaseline(seed int64, b *hin.Bipartite, k int) []int {
	sim := simrank.Bipartite(b.W, simrank.Options{MaxIter: 5}).SX
	return kmeans.Cluster(stats.NewRNG(seed), sim, k, kmeans.Options{}).Assign
}

// E3Scale measures runtime growth of RankClus vs SimRank-based
// clustering as the attribute side grows — the EDBT'09 scalability
// figure whose point is the order-of-magnitude gap.
func E3Scale(seed int64, authorCounts []int) []Row {
	var rows []Row
	for _, ny := range authorCounts {
		cfg := netgen.BiTypedConfig{
			K:     3,
			Nx:    []int{10, 10, 10},
			Ny:    []int{ny, ny, ny},
			Links: []int{ny * 2, ny * 2, ny * 2},
			Cross: 0.15,
			Skew:  0.95,
		}
		res := netgen.BiTyped(stats.NewRNG(seed), cfg)
		b := res.Net.Bipartite(res.X, res.Y)

		t0 := time.Now()
		core.Run(stats.NewRNG(seed+1), b, core.Options{K: 3, Restarts: 1})
		rcMS := time.Since(t0).Seconds() * 1000

		t0 = time.Now()
		simrankBaseline(seed+2, b, 3)
		srMS := time.Since(t0).Seconds() * 1000

		rows = append(rows, Row{
			Label:   fmt.Sprintf("authors/cluster=%d", ny),
			Columns: []string{"RankClus-ms", "SimRank-ms", "speedup"},
			Values:  []float64{rcMS, srMS, srMS / rcMS},
		})
	}
	return rows
}

// E6PageRankHITS runs PageRank and HITS on a preferential-attachment
// web-like graph and reports convergence and hub concentration. HITS's
// iterations are applications of A·Aᵀ — LOBPCG's steps and the closing
// power rounds that test its answer — so they compare with PageRank's
// at two mat-vecs to one.
func E6PageRankHITS(seed int64, n int) []Row {
	g := netgen.BarabasiAlbert(stats.NewRNG(seed), n, 3)
	adj := g.Adjacency()
	pr := rank.PageRank(adj, rank.Options{Tolerance: 1e-10})
	ht := rank.HITS(adj, rank.Options{Tolerance: 1e-10})
	// Mass captured by the top 10 nodes (hub concentration).
	top := stats.TopK(pr.Scores, 10)
	mass := 0.0
	for _, v := range top {
		mass += pr.Scores[v]
	}
	// Agreement between PageRank and HITS authority orderings.
	tau := eval.KendallTau(pr.Scores, ht.Authority)
	return []Row{{
		Label:   fmt.Sprintf("BA graph n=%d m=3", n),
		Columns: []string{"PR-iters", "HITS-iters", "top10-mass", "PR-HITS-tau"},
		Values:  []float64{float64(pr.Iterations), float64(ht.Iterations), mass, tau},
	}}
}

// E7SimRank compares SimRank against co-citation counting for
// structural-context similarity on a planted bipartite network:
// fraction of objects whose nearest neighbor shares their block.
func E7SimRank(seed int64) []Row {
	// Sparse links: direct co-citation overlap between same-block
	// objects is frequently zero, so counting fails where SimRank's
	// transitive propagation still ranks block-mates first.
	cfg := netgen.BiTypedConfig{
		K:     4,
		Nx:    []int{15, 15, 15, 15},
		Ny:    []int{80, 80, 80, 80},
		Links: []int{30, 30, 30, 30},
		Cross: 0.10,
		Skew:  0.6,
	}
	res := netgen.BiTyped(stats.NewRNG(seed), cfg)
	w := res.Net.Relation(res.X, res.Y)
	sr := simrank.Bipartite(w, simrank.Options{MaxIter: 7}).SX
	cc, _ := w.MulCtx(context.Background(), w.Transpose()) // co-citation counts; never cancelled: cannot fail

	nnAcc := func(simOf func(a, b int) float64) float64 {
		hit := 0
		n := w.Rows()
		for a := 0; a < n; a++ {
			// A nearest neighbor must have strictly positive similarity;
			// an all-zero row is a retrieval failure, not a free pick.
			best, bv := -1, 0.0
			for b2 := 0; b2 < n; b2++ {
				if b2 == a {
					continue
				}
				if s := simOf(a, b2); s > bv {
					bv, best = s, b2
				}
			}
			if best >= 0 && res.TruthX[best] == res.TruthX[a] {
				hit++
			}
		}
		return float64(hit) / float64(n)
	}
	// Pair-level AUC: probability a random same-block pair outranks a
	// random cross-block pair. SimRank's graded scores break the heavy
	// ties of integer co-citation counts.
	n := w.Rows()
	var srScores, ccScores []float64
	var pos []bool
	for a := 0; a < n; a++ {
		for b2 := a + 1; b2 < n; b2++ {
			srScores = append(srScores, sr[a][b2])
			ccScores = append(ccScores, cc.At(a, b2))
			pos = append(pos, res.TruthX[a] == res.TruthX[b2])
		}
	}
	return []Row{{
		Label:   "same-block retrieval",
		Columns: []string{"SimRank-NN", "cocite-NN", "SimRank-AUC", "cocite-AUC"},
		Values: []float64{
			nnAcc(func(a, b int) float64 { return sr[a][b] }),
			nnAcc(func(a, b int) float64 { return cc.At(a, b) }),
			pairAUC(srScores, pos),
			pairAUC(ccScores, pos),
		},
	}}
}

// pairAUC is the rank-sum AUC with average ranks on ties.
func pairAUC(scores []float64, pos []bool) float64 {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sortByScore(idx, scores)
	ranks := make([]float64, len(scores))
	i := 0
	for i < len(idx) {
		j := i
		for j < len(idx) && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		avg := float64(i+j+1) / 2
		for k := i; k < j; k++ {
			ranks[idx[k]] = avg
		}
		i = j
	}
	var sumPos, nPos, nNeg float64
	for i, p := range pos {
		if p {
			sumPos += ranks[i]
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0
	}
	return (sumPos - nPos*(nPos+1)/2) / (nPos * nNeg)
}

func sortByScore(idx []int, scores []float64) {
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
}

// E10TruthFinder reproduces the veracity table: TruthFinder vs majority
// voting across error regimes, plus the copycat stress with and without
// copy detection.
func E10TruthFinder(seed int64) []Row {
	var rows []Row
	for _, setting := range []struct {
		name string
		cfg  truth.SynthConfig
	}{
		{"mostly reliable providers", truth.SynthConfig{GoodSites: 0.7, GoodErr: 0.15, BadErr: 0.65, Websites: 20, ClaimsPerSite: 25}},
		{"unreliable majority", truth.SynthConfig{GoodSites: 0.35, GoodErr: 0.1, BadErr: 0.6, FalsePerObj: 2, Websites: 30, ClaimsPerSite: 25, Objects: 80}},
	} {
		s := truth.Synthesize(stats.NewRNG(seed), setting.cfg)
		r := truth.Run(s.Net, truth.Options{})
		rows = append(rows, Row{
			Label:   setting.name,
			Columns: []string{"TruthFinder", "MajorityVote"},
			Values: []float64{
				s.Accuracy(truth.PredictTruth(s.Net, r.Confidence)),
				s.Accuracy(truth.MajorityVote(s.Net)),
			},
		})
	}
	// Copycat stress.
	s := truth.Synthesize(stats.NewRNG(seed+1), truth.SynthConfig{
		Objects: 80, Websites: 20, ClaimsPerSite: 40,
		GoodSites: 0.5, GoodErr: 0.05, BadErr: 0.65, Copycats: 6,
	})
	plain := truth.Run(s.Net, truth.Options{})
	plainAcc := s.Accuracy(truth.PredictTruth(s.Net, plain.Confidence))
	mv := s.Accuracy(truth.MajorityVote(s.Net))
	s.Net.SiteWeight = truth.DetectCopycats(s.Net, 0.9)
	guarded := truth.Run(s.Net, truth.Options{})
	rows = append(rows, Row{
		Label:   "6 copycat mirrors",
		Columns: []string{"TruthFinder", "MajorityVote", "TF+copydetect"},
		Values:  []float64{plainAcc, mv, s.Accuracy(truth.PredictTruth(s.Net, guarded.Confidence))},
	})
	return rows
}

// E11Distinct reproduces the object-distinction table: pairwise F1 of
// DISTINCT vs the merge-all / split-all / exact-link baselines on an
// ambiguous-name overlay of the DBLP corpus.
func E11Distinct(seed int64) []Row {
	c := dblp.Generate(stats.NewRNG(seed), dblp.Config{
		VenuesPerArea:  3,
		AuthorsPerArea: 60,
		TermsPerArea:   40,
		SharedTerms:    15,
		Papers:         900,
		MinAuthors:     2,
		MaxAuthors:     4,
	})
	pa := c.Net.Relation(dblp.TypePaper, dblp.TypeAuthor)
	pv := c.Net.Relation(dblp.TypePaper, dblp.TypeVenue)
	pt := c.Net.Relation(dblp.TypePaper, dblp.TypeTerm)
	deg := make([]int, c.Net.Count(dblp.TypeAuthor))
	for p := 0; p < pa.Rows(); p++ {
		pa.Row(p, func(a int, v float64) { deg[a]++ })
	}
	pick := func(area int) int {
		for a, d := range deg {
			if c.AuthorArea[a] == area && d >= 10 && d <= 25 {
				return a
			}
		}
		return 0
	}
	merged := []int{pick(0), pick(1), pick(2)}
	occ := c.AmbiguousName(merged)
	var refs []distinct.Reference
	var truthL []int
	for i, o := range occ {
		f := make(map[int]float64)
		pa.Row(o.Paper, func(a int, v float64) {
			if a != o.TrueAuthor {
				f[a] = v
			}
		})
		pv.Row(o.Paper, func(v int, w float64) { f[100000+v] = w })
		pt.Row(o.Paper, func(v int, w float64) { f[200000+v] = w })
		refs = append(refs, distinct.Reference{ID: i, Features: f})
		truthL = append(truthL, o.TrueAuthor)
	}
	pred := distinct.Cluster(refs, distinct.Options{Threshold: 0.15})
	return []Row{{
		Label:   fmt.Sprintf("3-way ambiguous name (%d refs)", len(refs)),
		Columns: []string{"DISTINCT-F1", "mergeAll-F1", "splitAll-F1", "exactLink-F1"},
		Values: []float64{
			eval.PairwisePRF(truthL, pred).F1,
			eval.PairwisePRF(truthL, distinct.MergeAllBaseline(len(refs))).F1,
			eval.PairwisePRF(truthL, distinct.SplitAllBaseline(len(refs))).F1,
			eval.PairwisePRF(truthL, distinct.ExactLinkBaseline(refs)).F1,
		},
	}}
}

// E16Classify reproduces the heterogeneous-network classification
// comparison: typed propagation vs homogeneous propagation vs majority
// on DBLP author areas and Flickr photo categories.
func E16Classify(seed int64) []Row {
	var rows []Row
	// DBLP: seed papers, classify everything.
	c := dblp.Generate(stats.NewRNG(seed), DefaultDBLP())
	rng := stats.NewRNG(seed + 1)
	seeds := classify.SampleSeeds(rng, dblp.TypePaper, c.PaperArea, c.Areas(), 10)
	seeded := map[int]bool{}
	for _, s := range seeds {
		seeded[s.ID] = true
	}
	typed := classify.Propagate(c.Net, c.Areas(), seeds, classify.Options{})
	homog := classify.PropagateHomogeneous(c.Net, c.Areas(), seeds, classify.Options{})
	maj := classify.MajorityBaseline(c.Areas(), seeds, c.Net.Count(dblp.TypePaper))
	rows = append(rows, Row{
		Label:   "DBLP paper areas (10 seeds/class)",
		Columns: []string{"typed", "homogeneous", "majority"},
		Values: []float64{
			unlabeledAcc(c.PaperArea, classify.Labels(typed[dblp.TypePaper]), seeded),
			unlabeledAcc(c.PaperArea, classify.Labels(homog[dblp.TypePaper]), seeded),
			unlabeledAcc(c.PaperArea, maj, seeded),
		},
	})
	// Flickr tagging graph.
	fc := flickr.Generate(stats.NewRNG(seed+2), flickr.Config{Photos: 800})
	rng2 := stats.NewRNG(seed + 3)
	fseeds := classify.SampleSeeds(rng2, flickr.TypePhoto, fc.PhotoCat, fc.Categories(), 12)
	fseeded := map[int]bool{}
	for _, s := range fseeds {
		fseeded[s.ID] = true
	}
	ftyped := classify.Propagate(fc.Net, fc.Categories(), fseeds, classify.Options{})
	fhomog := classify.PropagateHomogeneous(fc.Net, fc.Categories(), fseeds, classify.Options{})
	fmaj := classify.MajorityBaseline(fc.Categories(), fseeds, fc.Net.Count(flickr.TypePhoto))
	rows = append(rows, Row{
		Label:   "Flickr photo categories (12 seeds/class)",
		Columns: []string{"typed", "homogeneous", "majority"},
		Values: []float64{
			unlabeledAcc(fc.PhotoCat, classify.Labels(ftyped[flickr.TypePhoto]), fseeded),
			unlabeledAcc(fc.PhotoCat, classify.Labels(fhomog[flickr.TypePhoto]), fseeded),
			unlabeledAcc(fc.PhotoCat, fmaj, fseeded),
		},
	})
	return rows
}

func unlabeledAcc(truthL, pred []int, skip map[int]bool) float64 {
	hit, total := 0, 0
	for i := range truthL {
		if skip[i] {
			continue
		}
		total++
		if truthL[i] == pred[i] {
			hit++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// SparseMatrixFromBipartite is a small helper exposed for benches.
func SparseMatrixFromBipartite(b *hin.Bipartite) *sparse.Matrix { return b.W }
