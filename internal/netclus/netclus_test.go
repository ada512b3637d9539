package netclus

import (
	"fmt"
	"math"
	"testing"

	"hinet/internal/dblp"
	"hinet/internal/eval"
	"hinet/internal/hin"
	"hinet/internal/stats"
)

func corpus(seed int64) *dblp.Corpus {
	return dblp.Generate(stats.NewRNG(seed), dblp.Config{
		VenuesPerArea:  4,
		AuthorsPerArea: 80,
		TermsPerArea:   60,
		SharedTerms:    30,
		Papers:         800,
		Years:          3,
	})
}

func TestNetClusRecoversPaperAreas(t *testing.T) {
	c := corpus(1)
	m := Run(stats.NewRNG(2), c.Star(), Options{K: 4, Restarts: 2})
	if nmi := eval.NMI(c.PaperArea, m.AssignCenter); nmi < 0.7 {
		t.Errorf("paper NMI = %v", nmi)
	}
}

func TestNetClusVenueAndAuthorPosteriors(t *testing.T) {
	c := corpus(3)
	m := Run(stats.NewRNG(4), c.Star(), Options{K: 4, Restarts: 2})
	// attribute type order: author=0, venue=1, term=2
	if nmi := eval.NMI(c.VenueArea, m.AssignAttr(1)); nmi < 0.7 {
		t.Errorf("venue NMI = %v", nmi)
	}
	if nmi := eval.NMI(c.AuthorArea, m.AssignAttr(0)); nmi < 0.5 {
		t.Errorf("author NMI = %v", nmi)
	}
}

func TestPosteriorRowsNormalized(t *testing.T) {
	c := corpus(5)
	m := Run(stats.NewRNG(6), c.Star(), Options{K: 4})
	for d, p := range m.PosteriorCenter {
		s := 0.0
		for _, v := range p {
			if v < 0 {
				t.Fatalf("negative posterior for paper %d", d)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-6 {
			t.Fatalf("paper %d posterior sums to %v", d, s)
		}
	}
	for t2 := range m.AttrPosterior {
		for o, p := range m.AttrPosterior[t2] {
			s := 0.0
			for _, v := range p {
				s += v
			}
			if s > 0 && math.Abs(s-1) > 1e-6 {
				t.Fatalf("attr type %d obj %d posterior sums to %v", t2, o, s)
			}
		}
	}
}

func TestRankDistributionsNormalized(t *testing.T) {
	c := corpus(7)
	m := Run(stats.NewRNG(8), c.Star(), Options{K: 4})
	for t2 := range m.RankDist {
		for k2, dist := range m.RankDist[t2] {
			s := 0.0
			for _, v := range dist {
				if v < 0 {
					t.Fatalf("negative rank type %d cluster %d", t2, k2)
				}
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				t.Fatalf("rank dist type %d cluster %d sums to %v", t2, k2, s)
			}
		}
	}
}

func TestConditionalRanksSeparateAreas(t *testing.T) {
	c := corpus(9)
	m := Run(stats.NewRNG(10), c.Star(), Options{K: 4, Restarts: 2})
	// For each cluster, its top-5 venues should share one true area.
	for k := 0; k < 4; k++ {
		top := m.TopAttr(1, k, 5)
		votes := map[int]int{}
		for _, v := range top {
			votes[c.VenueArea[v]]++
		}
		best := 0
		for _, n := range votes {
			if n > best {
				best = n
			}
		}
		if best < 4 {
			t.Errorf("cluster %d top venues not area-coherent: %v", k, votes)
		}
	}
}

func TestAuthorityRankingVariant(t *testing.T) {
	c := corpus(11)
	m := Run(stats.NewRNG(12), c.Star(), Options{K: 4, Authority: true, Restarts: 2})
	if nmi := eval.NMI(c.PaperArea, m.AssignCenter); nmi < 0.6 {
		t.Errorf("authority-variant paper NMI = %v", nmi)
	}
}

func TestPriorIsDistribution(t *testing.T) {
	c := corpus(13)
	m := Run(stats.NewRNG(14), c.Star(), Options{K: 4})
	s := 0.0
	for _, v := range m.Prior {
		if v < 0 {
			t.Fatal("negative prior")
		}
		s += v
	}
	if math.Abs(s-1) > 1e-6 {
		t.Errorf("prior sums to %v", s)
	}
}

func TestAllClustersPopulated(t *testing.T) {
	c := corpus(15)
	m := Run(stats.NewRNG(16), c.Star(), Options{K: 4})
	counts := make([]int, 4)
	for _, a := range m.AssignCenter {
		counts[a]++
	}
	for k, n := range counts {
		if n == 0 {
			t.Errorf("cluster %d empty", k)
		}
	}
}

func TestMoreRestartsNoWorseLikelihood(t *testing.T) {
	c := corpus(17)
	one := Run(stats.NewRNG(18), c.Star(), Options{K: 4, Restarts: 1})
	three := Run(stats.NewRNG(18), c.Star(), Options{K: 4, Restarts: 3})
	if three.LogLikelihood < one.LogLikelihood-1e-6 {
		t.Errorf("restarts lowered LL: %v vs %v", three.LogLikelihood, one.LogLikelihood)
	}
}

func TestKValidation(t *testing.T) {
	c := corpus(19)
	defer func() {
		if recover() == nil {
			t.Error("K=1 should panic")
		}
	}()
	Run(stats.NewRNG(20), c.Star(), Options{K: 1})
}

// BenchmarkEStepCrossover is the measurement emWork is set from (table
// in docs/ARCHITECTURE.md): one E-step pass over corpora of 500 papers
// to 4 000 authors, serial (workers 1) against cut in exactly two blocks
// on two workers — the marginal decision the grain governs. Read beside
// BenchmarkMatVecCrossover: a pass should cost what a mat-vec of its
// estimated work costs, and gain what it gains from the split.
func BenchmarkEStepCrossover(b *testing.B) {
	for _, cfg := range []struct {
		name string
		c    dblp.Config
	}{
		{"papers=500", dblp.Config{Papers: 500}},
		{"papers=1000", dblp.Config{Papers: 1000}},
		{"default", dblp.Config{}},
		{"authors=4000", dblp.Config{AuthorsPerArea: 1000, Papers: 10_000}},
	} {
		c := dblp.Generate(stats.NewRNG(1), cfg.c)
		star, k := c.Star(), c.Areas()
		opt := Options{K: k}.withDefaults()
		m := runOnce(stats.NewRNG(2), star, opt)
		s := newScorer(star, k)
		s.fill(m.RankDist, m.Background, opt.LambdaB)
		s.setPrior(m.Prior)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/work=%dk/workers=%d", cfg.name, s.work>>10, workers), func(b *testing.B) {
				withKnobs(workers, s.work/2, func() {
					s.posteriors(m.PosteriorCenter)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						s.posteriors(m.PosteriorCenter)
					}
				})
			})
		}
	}
}

func TestEmptyStar(t *testing.T) {
	n := hin.NewNetwork()
	n.AddType("paper")
	n.AddObject("author", "a")
	n.AddObject("paper", "p") // one paper, then remove? build degenerate 1-paper star
	n.AddLink("paper", 0, "author", 0, 1)
	star, err := n.Star("paper", "author")
	if err != nil {
		t.Fatal(err)
	}
	m := Run(stats.NewRNG(21), star, Options{K: 2, MaxIter: 3})
	if len(m.AssignCenter) != 1 {
		t.Error("single-paper star should still fit")
	}
}
