package netclus

import (
	"fmt"
	"math"
	"testing"

	"hinet/internal/dblp"
	"hinet/internal/hin"
	"hinet/internal/rank"
	"hinet/internal/sparse"
	"hinet/internal/stats"
)

// oracleRun is run over oracleRunOnce.
func oracleRun(rng *stats.RNG, star *hin.Star, opt Options) *fit {
	opt = opt.withDefaults()
	var best *fit
	for r := 0; r < opt.Restarts; r++ {
		f := oracleRunOnce(rng, star, opt)
		if best == nil || f.LogLikelihood > best.LogLikelihood {
			best = f
		}
	}
	return best
}

// oracleRunOnce is runOnce as it was before the per-round table: the
// E-step and the likelihood take one math.Log of the smoothed rank
// probability per link and cluster in every pass, through a closure
// per entry. It shares emWork with runOnce, so the likelihood's block
// sum is cut the same way at every worker count: what it pins is the
// arithmetic, not the grain. It keeps a slice per object's posterior,
// as runOnce did, and flattens them into the fit at the end; each
// attribute label is the argmax of its object's posterior.
func oracleRunOnce(rng *stats.RNG, star *hin.Star, opt Options) *fit {
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
	post := make([][]float64, nd)
	for d := range post {
		post[d] = make([]float64, k)
	}
	prev := make([]int, nd)
	work := emWork(star, k)

	for it := 1; it <= opt.MaxIter; it++ {
		copy(prev, assign)
		m.RankDist = conditionalRanks(star, assign, k, opt)
		for em := 0; em < opt.EMIter; em++ {
			sparse.ParRange(nd, work, func(lo, hi int) {
				lp := make([]float64, k)
				for d := lo; d < hi; d++ {
					for c := 0; c < k; c++ {
						lp[c] = math.Log(prior[c] + 1e-300)
					}
					for t := 0; t < nt; t++ {
						star.Rel[t].Row(d, func(o int, w float64) {
							for c := 0; c < k; c++ {
								p := (1-opt.LambdaB)*m.RankDist[t][c][o] + opt.LambdaB*m.Background[t][o]
								lp[c] += w * math.Log(p+1e-300)
							}
						})
					}
					lse := stats.LogSumExp(lp)
					for c := 0; c < k; c++ {
						post[d][c] = math.Exp(lp[c] - lse)
					}
				}
			})
			newPrior := make([]float64, k)
			for d := 0; d < nd; d++ {
				for c := 0; c < k; c++ {
					newPrior[c] += post[d][c]
				}
			}
			for c := 0; c < k; c++ {
				prior[c] = newPrior[c] / float64(nd)
			}
		}
		for d := 0; d < nd; d++ {
			assign[d] = stats.ArgMax(post[d])
		}
		reseedEmpty(rng, assign, k, nd)
		m.Iterations = it
		if equal(prev, assign) {
			m.Converged = true
			break
		}
	}

	m.RankDist = conditionalRanks(star, assign, k, opt)
	m.AssignCenter = assign
	m.Prior = prior
	m.LogLikelihood = sparse.ParReduce(nd, work, func(lo, hi int) float64 {
		ll := 0.0
		lp := make([]float64, k)
		for d := lo; d < hi; d++ {
			for c := 0; c < k; c++ {
				lp[c] = math.Log(prior[c] + 1e-300)
			}
			for t := 0; t < nt; t++ {
				star.Rel[t].Row(d, func(o int, w float64) {
					for c := 0; c < k; c++ {
						p := (1-opt.LambdaB)*m.RankDist[t][c][o] + opt.LambdaB*m.Background[t][o]
						lp[c] += w * math.Log(p+1e-300)
					}
				})
			}
			ll += stats.LogSumExp(lp)
		}
		return ll
	})
	f := &fit{Model: m, post: flatten(post), attrPost: make([][]float64, nt)}
	m.attrAssign = make([][]int, nt)
	for t := 0; t < nt; t++ {
		no := star.Rel[t].Cols()
		attrPost := make([][]float64, no)
		for o := 0; o < no; o++ {
			attrPost[o] = make([]float64, k)
		}
		for d := 0; d < nd; d++ {
			star.Rel[t].Row(d, func(o int, w float64) {
				for c := 0; c < k; c++ {
					attrPost[o][c] += w * post[d][c]
				}
			})
		}
		m.attrAssign[t] = make([]int, no)
		for o := 0; o < no; o++ {
			stats.Normalize(attrPost[o])
			m.attrAssign[t][o] = stats.ArgMax(attrPost[o])
		}
		f.attrPost[t] = flatten(attrPost)
	}
	return f
}

// flatten lays rows end to end.
func flatten(rows [][]float64) []float64 {
	var out []float64
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

// randomStar is a seeded star of nd centers over attribute types of the
// given sizes. Weights are fractional; a center skips a type with
// probability empty, so some center rows are empty in some types and a
// few in all. Attribute objects at index ≥ linked of their type are
// never linked (background and rank probability exactly 0).
func randomStar(seed int64, nd int, sizes []int, linked, empty float64) *hin.Star {
	rng := stats.NewRNG(seed)
	star := &hin.Star{}
	for _, no := range sizes {
		reach := max(1, int(float64(no)*linked))
		var entries []sparse.Coord
		for d := 0; d < nd; d++ {
			if rng.Float64() < empty {
				continue
			}
			for n := 1 + rng.Intn(4); n > 0; n-- {
				entries = append(entries, sparse.Coord{Row: d, Col: rng.Intn(reach), Val: 0.25 + 2*rng.Float64()})
			}
		}
		star.Rel = append(star.Rel, sparse.NewFromCoords(nd, no, entries))
	}
	return star
}

// TestRunMatchesOracle holds run to the per-link-math.Log E-step bit for
// bit in every Model field and in the center and attribute posteriors
// the fit ends with, on the default corpus and on stars built
// to reach its edges, at one worker, at the default and with every
// splittable pass forced through the pool.
func TestRunMatchesOracle(t *testing.T) {
	cases := []struct {
		name string
		star *hin.Star
		opt  Options
	}{
		{"default corpus", dblp.Generate(stats.NewRNG(1), dblp.Config{}).Star(), Options{K: 4}},
		{"default corpus, authority", corpus(2).Star(), Options{K: 4, Authority: true}},
		{"random fractional, empty rows", randomStar(3, 300, []int{60, 8, 90}, 1, 0.2), Options{K: 4}},
		{"random, another seed", randomStar(4, 150, []int{25, 40}, 1, 0.1), Options{K: 3, LambdaB: 0.05}},
		{"unlinked attribute objects", randomStar(5, 200, []int{50, 10, 70}, 0.5, 0.1), Options{K: 4}},
		// A subnormal λ underflows λ·Background to 0, so an out-of-cluster
		// link reads log(0 + 1e-300).
		{"p = 0 read through the floor", randomStar(6, 120, []int{30, 6}, 0.7, 0), Options{K: 3, LambdaB: 1e-310}},
		// Six attribute objects cannot hold ten clusters apart: every round
		// empties some, and reseedEmpty moves a center into each.
		{"K above the populated clusters", randomStar(7, 60, []int{4, 2}, 1, 0.3), Options{K: 10}},
		// No donor: some clusters stay empty to the end.
		{"K above the centers", randomStar(8, 5, []int{6, 3}, 1, 0), Options{K: 8, MaxIter: 4}},
		{"restarts 3", corpus(9).Star(), Options{K: 4, Restarts: 3}},
		{"random, restarts 3", randomStar(10, 250, []int{40, 12, 60}, 0.8, 0.15), Options{K: 5, Restarts: 3}},
	}
	settings := []struct {
		name              string
		workers, splitAll int
	}{
		{"parallelism 1", 1, 0},
		{"default", 0, 0},
		{"forced split", 0, 1},
	}
	for _, c := range cases {
		for _, s := range settings {
			t.Run(c.name+"/"+s.name, func(t *testing.T) {
				withKnobs(s.workers, s.splitAll, func() {
					want := oracleRun(stats.NewRNG(42), c.star, c.opt)
					got := run(stats.NewRNG(42), c.star, c.opt)
					if diff := fitDiff(got, want); diff != "" {
						t.Fatalf("Run differs from the per-link-log oracle: %s", diff)
					}
				})
			})
		}
	}
}

// withKnobs runs f under the given sparse.Parallelism and
// sparse.SerialThreshold (0 leaves a knob as it is) and restores both.
func withKnobs(workers, threshold int, f func()) {
	oldW, oldT := sparse.Parallelism(0), sparse.SerialThreshold(0)
	defer func() {
		sparse.Parallelism(oldW)
		sparse.SerialThreshold(oldT)
	}()
	sparse.Parallelism(workers)
	sparse.SerialThreshold(threshold)
	f()
}

// fitDiff names the first field where got and want differ in any bit:
// a Model field, a posterior or an attribute label.
func fitDiff(got, want *fit) string {
	if got.K != want.K || got.Iterations != want.Iterations || got.Converged != want.Converged {
		return fmt.Sprintf("K/Iterations/Converged %d/%d/%v, want %d/%d/%v",
			got.K, got.Iterations, got.Converged, want.K, want.Iterations, want.Converged)
	}
	if d := labelDiff(got.AssignCenter, want.AssignCenter); d != "" {
		return "AssignCenter" + d
	}
	if len(got.attrAssign) != len(want.attrAssign) {
		return "attrAssign length"
	}
	for t := range want.attrAssign {
		if d := labelDiff(got.attrAssign[t], want.attrAssign[t]); d != "" {
			return fmt.Sprintf("attrAssign[%d]%s", t, d)
		}
	}
	if math.Float64bits(got.LogLikelihood) != math.Float64bits(want.LogLikelihood) {
		return fmt.Sprintf("LogLikelihood = %v, want %v", got.LogLikelihood, want.LogLikelihood)
	}
	if d := vecDiff(got.Prior, want.Prior); d != "" {
		return "Prior" + d
	}
	if d := vecDiff(got.post, want.post); d != "" {
		return "post" + d
	}
	for _, f := range []struct {
		name      string
		got, want [][]float64
	}{
		{"Background", got.Background, want.Background},
		{"attrPost", got.attrPost, want.attrPost},
	} {
		if d := matDiff(f.got, f.want); d != "" {
			return f.name + d
		}
	}
	if len(got.RankDist) != len(want.RankDist) {
		return "RankDist length"
	}
	for t := range want.RankDist {
		if d := matDiff(got.RankDist[t], want.RankDist[t]); d != "" {
			return fmt.Sprintf("RankDist[%d]%s", t, d)
		}
	}
	return ""
}

func labelDiff(got, want []int) string {
	if len(got) != len(want) {
		return " length"
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	return ""
}

func matDiff(got, want [][]float64) string {
	if len(got) != len(want) {
		return " length"
	}
	for i := range want {
		if d := vecDiff(got[i], want[i]); d != "" {
			return fmt.Sprintf("[%d]%s", i, d)
		}
	}
	return ""
}

func vecDiff(got, want []float64) string {
	if len(got) != len(want) {
		return " length"
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	return ""
}
