// Package hinet_test is the benchmark harness: one testing.B benchmark
// per reproduced table/figure (E1–E16, internal/experiments) plus the ablations.
// Each benchmark times the core computation and attaches the
// experiment's quality metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates both the performance and the quality side of every
// experiment. cmd/experiments prints the same tables in full.
package hinet_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hinet/internal/classify"
	"hinet/internal/cluster"
	"hinet/internal/core"
	"hinet/internal/crossmine"
	"hinet/internal/dblp"
	"hinet/internal/eval"
	"hinet/internal/experiments"
	"hinet/internal/flickr"
	"hinet/internal/hin"
	"hinet/internal/ingest"
	"hinet/internal/kmeans"
	"hinet/internal/linkclus"
	"hinet/internal/loadgen"
	"hinet/internal/netclus"
	"hinet/internal/netgen"
	"hinet/internal/netstat"
	"hinet/internal/pathsim"
	"hinet/internal/rank"
	"hinet/internal/relational"
	"hinet/internal/scan"
	"hinet/internal/serve"
	"hinet/internal/simrank"
	"hinet/internal/sparse"
	"hinet/internal/spectral"
	"hinet/internal/stats"
	"hinet/internal/truth"
)

// report attaches experiment rows as custom benchmark metrics.
func report(b *testing.B, rows []experiments.Row) {
	b.Helper()
	for _, r := range rows {
		for i, c := range r.Columns {
			b.ReportMetric(r.Values[i], c)
		}
	}
}

// --- E1: RankClus DBLP case study -----------------------------------

func BenchmarkE1RankClusDBLP(b *testing.B) {
	c := dblp.Generate(stats.NewRNG(1), experiments.DefaultDBLP())
	bip := c.VenueAuthorBipartite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Run(stats.NewRNG(2), bip, core.Options{K: c.Areas(), Method: core.AuthorityRanking})
	}
	b.StopTimer()
	report(b, experiments.E1RankClusCaseStudy(1))
}

// --- E2: RankClus accuracy vs baselines ------------------------------

func BenchmarkE2RankClusAccuracy(b *testing.B) {
	cfg := netgen.MediumBiTyped()
	cfg.Cross = 0.15
	res := netgen.BiTyped(stats.NewRNG(1), cfg)
	bip := res.Net.Bipartite(res.X, res.Y)
	for _, m := range []struct {
		name   string
		method core.RankingMethod
	}{{"authority", core.AuthorityRanking}, {"simple", core.SimpleRanking}} {
		b.Run(m.name, func(b *testing.B) {
			var nmi float64
			for i := 0; i < b.N; i++ {
				r := core.Run(stats.NewRNG(2), bip, core.Options{K: 3, Method: m.method, Restarts: 2})
				nmi = eval.NMI(res.TruthX, r.Assign)
			}
			b.ReportMetric(nmi, "NMI")
		})
	}
	b.Run("spectral-baseline", func(b *testing.B) {
		var nmi float64
		for i := 0; i < b.N; i++ {
			xx := bip.W.Mul(bip.W.Transpose())
			a := spectral.ClusterMatrix(stats.NewRNG(3), xx, 3, spectral.Options{}).Assign
			nmi = eval.NMI(res.TruthX, a)
		}
		b.ReportMetric(nmi, "NMI")
	})
	b.Run("simrank-baseline", func(b *testing.B) {
		var nmi float64
		for i := 0; i < b.N; i++ {
			sim := simrank.Bipartite(bip.W, simrank.Options{MaxIter: 5}).SX
			a := kmeans.Cluster(stats.NewRNG(4), sim, 3, kmeans.Options{}).Assign
			nmi = eval.NMI(res.TruthX, a)
		}
		b.ReportMetric(nmi, "NMI")
	})
}

// --- E3: scalability RankClus vs SimRank -----------------------------

func BenchmarkE3RankClusScale(b *testing.B) {
	for _, ny := range []int{100, 200, 400} {
		cfg := netgen.BiTypedConfig{
			K: 3, Nx: []int{10, 10, 10}, Ny: []int{ny, ny, ny},
			Links: []int{ny * 2, ny * 2, ny * 2}, Cross: 0.15, Skew: 0.95,
		}
		res := netgen.BiTyped(stats.NewRNG(1), cfg)
		bip := res.Net.Bipartite(res.X, res.Y)
		b.Run(fmt.Sprintf("RankClus/ny=%d", ny), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Run(stats.NewRNG(2), bip, core.Options{K: 3})
			}
		})
		b.Run(fmt.Sprintf("SimRank/ny=%d", ny), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				simrank.Bipartite(bip.W, simrank.Options{MaxIter: 5})
			}
		})
	}
}

// --- E4/E5: NetClus ---------------------------------------------------

func BenchmarkE4NetClusAccuracy(b *testing.B) {
	c := dblp.Generate(stats.NewRNG(1), experiments.DefaultDBLP())
	star := c.Star()
	var m *netclus.Model
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = netclus.Run(stats.NewRNG(2), star, netclus.Options{K: c.Areas()})
	}
	b.StopTimer()
	b.ReportMetric(eval.NMI(c.PaperArea, m.AssignCenter), "paperNMI")
	b.ReportMetric(eval.NMI(c.VenueArea, m.AssignAttr(1)), "venueNMI")
	b.ReportMetric(eval.NMI(c.AuthorArea, m.AssignAttr(0)), "authorNMI")
}

func BenchmarkE5NetClusRanking(b *testing.B) {
	var rows []experiments.Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = experiments.E5NetClusRanking(1)
	}
	b.StopTimer()
	// Average coherence across clusters.
	var vc, tc float64
	for _, r := range rows {
		vc += r.Values[0]
		tc += r.Values[2]
	}
	b.ReportMetric(vc/float64(len(rows)), "meanTopVenueCoh")
	b.ReportMetric(tc/float64(len(rows)), "meanTopTermCoh")
}

// --- E6: PageRank / HITS ---------------------------------------------

func BenchmarkE6PageRankHITS(b *testing.B) {
	g := netgen.BarabasiAlbert(stats.NewRNG(1), 3000, 3)
	adj := g.Adjacency()
	b.Run("PageRank", func(b *testing.B) {
		var iters int
		for i := 0; i < b.N; i++ {
			iters = rank.PageRank(adj, rank.Options{Tolerance: 1e-10}).Iterations
		}
		b.ReportMetric(float64(iters), "iters")
	})
	b.Run("HITS", func(b *testing.B) {
		var iters int
		for i := 0; i < b.N; i++ {
			iters = rank.HITS(adj, rank.Options{Tolerance: 1e-10}).Iterations
		}
		b.ReportMetric(float64(iters), "iters")
	})
	b.Run("PersonalizedPageRank", func(b *testing.B) {
		restart := make([]float64, 3000)
		restart[7] = 1
		for i := 0; i < b.N; i++ {
			rank.Personalized(adj, restart, rank.Options{})
		}
	})
}

// --- E7: SimRank vs co-citation --------------------------------------

func BenchmarkE7SimRank(b *testing.B) {
	var rows []experiments.Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = experiments.E7SimRank(1)
	}
	b.StopTimer()
	report(b, rows)
}

// --- E8: SCAN ---------------------------------------------------------

func BenchmarkE8SCAN(b *testing.B) {
	g, truthL := netgen.PlantedPartition(stats.NewRNG(1), 4, 60, 0.35, 0.01)
	b.Run("SCAN", func(b *testing.B) {
		var res scan.Result
		for i := 0; i < b.N; i++ {
			res = scan.Run(g, scan.Options{Epsilon: 0.5, Mu: 3})
		}
		var pt, pp []int
		for v := range truthL {
			if res.Cluster[v] >= 0 {
				pt = append(pt, truthL[v])
				pp = append(pp, res.Cluster[v])
			}
		}
		b.ReportMetric(eval.NMI(pt, pp), "memberNMI")
	})
	b.Run("Spectral", func(b *testing.B) {
		var nmi float64
		for i := 0; i < b.N; i++ {
			r := spectral.Cluster(stats.NewRNG(2), g, 4, spectral.Options{})
			nmi = eval.NMI(truthL, r.Assign)
		}
		b.ReportMetric(nmi, "NMI")
	})
}

// --- E9: network statistics ------------------------------------------

func BenchmarkE9NetStats(b *testing.B) {
	ba := netgen.BarabasiAlbert(stats.NewRNG(1), 4000, 3)
	b.Run("PowerLawFit", func(b *testing.B) {
		var alpha float64
		for i := 0; i < b.N; i++ {
			alpha, _ = netstat.PowerLawFit(ba, 6)
		}
		b.ReportMetric(alpha, "alpha")
	})
	ws := netgen.WattsStrogatz(stats.NewRNG(2), 2000, 8, 0.1)
	b.Run("ClusteringCoefficient", func(b *testing.B) {
		var cc float64
		for i := 0; i < b.N; i++ {
			cc = netstat.ClusteringCoefficient(ws)
		}
		b.ReportMetric(cc, "cc")
	})
	b.Run("AveragePathLength", func(b *testing.B) {
		var apl float64
		for i := 0; i < b.N; i++ {
			apl = netstat.AveragePathLength(ws, 50)
		}
		b.ReportMetric(apl, "apl")
	})
	b.Run("Betweenness", func(b *testing.B) {
		small := netgen.ErdosRenyi(stats.NewRNG(3), 300, 0.05)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			netstat.BetweennessCentrality(small)
		}
	})
	b.Run("Densification", func(b *testing.B) {
		var exp float64
		for i := 0; i < b.N; i++ {
			_, snaps := netgen.ForestFire(stats.NewRNG(4), 3000, 0.35, 0.3, 300)
			var nodes, edges []int
			for _, s := range snaps {
				nodes = append(nodes, s.Nodes)
				edges = append(edges, s.Edges)
			}
			exp = netstat.DensificationExponent(nodes, edges)
		}
		b.ReportMetric(exp, "exponent")
	})
}

// --- E10: TruthFinder -------------------------------------------------

func BenchmarkE10TruthFinder(b *testing.B) {
	s := truth.Synthesize(stats.NewRNG(1), truth.SynthConfig{})
	b.ResetTimer()
	var r truth.Result
	for i := 0; i < b.N; i++ {
		r = truth.Run(s.Net, truth.Options{})
	}
	b.StopTimer()
	b.ReportMetric(s.Accuracy(truth.PredictTruth(s.Net, r.Confidence)), "TFacc")
	b.ReportMetric(s.Accuracy(truth.MajorityVote(s.Net)), "MVacc")
	b.ReportMetric(float64(r.Iterations), "iters")
}

// --- E11: DISTINCT -----------------------------------------------------

func BenchmarkE11Distinct(b *testing.B) {
	var rows []experiments.Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = experiments.E11Distinct(1)
	}
	b.StopTimer()
	report(b, rows)
}

// --- E12: PathSim ------------------------------------------------------

func BenchmarkE12PathSim(b *testing.B) {
	c := dblp.Generate(stats.NewRNG(1), dblp.Config{
		VenuesPerArea: 3, AuthorsPerArea: 60, TermsPerArea: 40,
		SharedTerms: 20, Papers: 800,
	})
	path := hin.MetaPath{dblp.TypeAuthor, dblp.TypePaper, dblp.TypeVenue, dblp.TypePaper, dblp.TypeAuthor}
	b.Run("BuildIndex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pathsim.NewIndex(c.Net, path)
		}
	})
	ix := pathsim.NewIndex(c.Net, path)
	b.Run("TopK", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.TopK(i%c.Net.Count(dblp.TypeAuthor), 10)
		}
	})
	b.StopTimer()
	report(b, experiments.E12PathSim(1))
}

// BenchmarkCommutingMatrix measures the meta-path engine against the
// pre-engine baseline on the APVPA chain of the default synthetic DBLP
// corpus — an asymmetric-size chain (≈800 authors × 2000 papers × 20
// venues) where association order dominates cost:
//
//   - naive:   strict left-to-right product of Relation matrices (what
//     hin.CommutingMatrix did before the engine existed);
//   - planned: the engine on a cold cache each iteration — DP-chosen
//     association order plus half-path Gram factorization;
//   - cached:  the engine on a warm cache — a repeated path query is a
//     canonical-key lookup.
func BenchmarkCommutingMatrix(b *testing.B) {
	c := dblp.Generate(stats.NewRNG(1), dblp.Config{})
	path := hin.MetaPath{dblp.TypeAuthor, dblp.TypePaper, dblp.TypeVenue, dblp.TypePaper, dblp.TypeAuthor}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := c.Net.Relation(path[0], path[1])
			for j := 1; j < len(path)-1; j++ {
				m = m.Mul(c.Net.Relation(path[j], path[j+1]))
			}
		}
	})
	b.Run("planned", func(b *testing.B) {
		eng := c.Net.PathEngine()
		for i := 0; i < b.N; i++ {
			eng.Reset()
			if _, err := c.Net.CommutingMatrixE(path); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		if _, err := c.Net.CommutingMatrixE(path); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Net.CommutingMatrixE(path); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E13: CrossMine ----------------------------------------------------

func BenchmarkE13CrossMine(b *testing.B) {
	s := relational.SyntheticCustomers(stats.NewRNG(1), relational.SynthConfig{Customers: 600})
	var train, test []int
	for i := 0; i < 600; i++ {
		if i < 360 {
			train = append(train, i)
		} else {
			test = append(test, i)
		}
	}
	var m *crossmine.Model
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = crossmine.Train(s.DB, "customer", s.Class, train, crossmine.Options{})
	}
	b.StopTimer()
	b.ReportMetric(m.Accuracy(s.Class, test), "accuracy")
	b.ReportMetric(float64(len(m.Rules)), "rules")
	st := crossmine.TrainSingleTable(s.DB, "customer", s.Class, train)
	b.ReportMetric(st.Accuracy(s.DB, "customer", s.Class, test), "baseline1R")
}

// --- E14: CrossClus ----------------------------------------------------

func BenchmarkE14CrossClus(b *testing.B) {
	var rows []experiments.Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = experiments.E14CrossClus(1)
	}
	b.StopTimer()
	report(b, rows)
}

// --- E15: OLAP ---------------------------------------------------------

func BenchmarkE15OLAP(b *testing.B) {
	var rows []experiments.Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = experiments.E15OLAP(1)
	}
	b.StopTimer()
	report(b, rows)
}

// --- E16: heterogeneous classification ---------------------------------

func BenchmarkE16Classify(b *testing.B) {
	c := flickr.Generate(stats.NewRNG(1), flickr.Config{Photos: 800})
	rng := stats.NewRNG(2)
	seeds := classify.SampleSeeds(rng, flickr.TypePhoto, c.PhotoCat, c.Categories(), 12)
	var scores classify.Scores
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores = classify.Propagate(c.Net, c.Categories(), seeds, classify.Options{})
	}
	b.StopTimer()
	seeded := map[int]bool{}
	for _, s := range seeds {
		seeded[s.ID] = true
	}
	pred := classify.Labels(scores[flickr.TypePhoto])
	hit, total := 0, 0
	for i, cat := range c.PhotoCat {
		if seeded[i] {
			continue
		}
		total++
		if pred[i] == cat {
			hit++
		}
	}
	b.ReportMetric(float64(hit)/float64(total), "photoAcc")
}

// --- Ablations ----------------------------------------------------------

func BenchmarkAblationLinkClusVsSimRank(b *testing.B) {
	cfg := netgen.BiTypedConfig{
		K: 3, Nx: []int{15, 15, 15}, Ny: []int{120, 120, 120},
		Links: []int{600, 600, 600}, Cross: 0.15, Skew: 0.9,
	}
	res := netgen.BiTyped(stats.NewRNG(1), cfg)
	w := res.Net.Relation(res.X, res.Y)
	b.Run("LinkClus", func(b *testing.B) {
		var m *linkclus.Model
		for i := 0; i < b.N; i++ {
			m = linkclus.Fit(stats.NewRNG(2), w, linkclus.Options{})
		}
		assign := m.Cluster(stats.NewRNG(3), 3)
		b.ReportMetric(eval.NMI(res.TruthX, assign), "NMI")
	})
	b.Run("SimRank", func(b *testing.B) {
		var sx [][]float64
		for i := 0; i < b.N; i++ {
			sx = simrank.Bipartite(w, simrank.Options{MaxIter: 8}).SX
		}
		a := kmeans.Cluster(stats.NewRNG(4), sx, 3, kmeans.Options{}).Assign
		b.ReportMetric(eval.NMI(res.TruthX, a), "NMI")
	})
}

func BenchmarkAblationRankClusSmoothing(b *testing.B) {
	for _, lam := range []float64{0.02, 0.1, 0.3, 0.6} {
		b.Run(fmt.Sprintf("lambda=%.2f", lam), func(b *testing.B) {
			cfg := netgen.MediumBiTyped()
			cfg.Cross = 0.2
			res := netgen.BiTyped(stats.NewRNG(1), cfg)
			bip := res.Net.Bipartite(res.X, res.Y)
			var nmi float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := core.Run(stats.NewRNG(2), bip, core.Options{K: 3, Smoothing: lam, Restarts: 2})
				nmi = eval.NMI(res.TruthX, m.Assign)
			}
			b.ReportMetric(nmi, "NMI")
		})
	}
}

func BenchmarkAblationSCANEpsilon(b *testing.B) {
	g, truthL := netgen.PlantedPartition(stats.NewRNG(1), 3, 50, 0.4, 0.02)
	for _, eps := range []float64{0.3, 0.5, 0.7} {
		b.Run(fmt.Sprintf("eps=%.1f", eps), func(b *testing.B) {
			var res scan.Result
			for i := 0; i < b.N; i++ {
				res = scan.Run(g, scan.Options{Epsilon: eps, Mu: 3})
			}
			var pt, pp []int
			for v := range truthL {
				if res.Cluster[v] >= 0 {
					pt = append(pt, truthL[v])
					pp = append(pp, res.Cluster[v])
				}
			}
			if len(pt) > 0 {
				b.ReportMetric(eval.NMI(pt, pp), "memberNMI")
			}
			b.ReportMetric(float64(res.Clusters), "clusters")
		})
	}
}

// --- Sparse kernel engine: parallel vs serial -------------------------
//
// The BenchmarkMulVec family measures every parallel kernel against its
// serial baseline (sparse.Parallelism(1)) at three scales, the largest
// above 1M stored nonzeros. On a multi-core host the parallel rows
// should clear ≥2x at the large scale; with GOMAXPROCS=1 the two modes
// coincide (the engine falls back to the serial path).
//
// Note the small-10k "parallel" rows deliberately measure the engine's
// production dispatch decision, which falls back to the serial loop
// below the default SerialThreshold — equality with the serial rows at
// that scale IS the "no regression on small matrices" check, not a
// measurement of the parallel code path.

type kernelScale struct {
	name string
	n    int // square dimension
	deg  int // nonzeros per row
}

var kernelScales = []kernelScale{
	{"small-10k", 2_000, 5},
	{"medium-100k", 20_000, 5},
	{"large-1M", 131_072, 8},
}

func kernelMatrix(sc kernelScale) *sparse.Matrix {
	rng := rand.New(rand.NewSource(int64(sc.n)))
	entries := make([]sparse.Coord, 0, sc.n*sc.deg)
	for r := 0; r < sc.n; r++ {
		for j := 0; j < sc.deg; j++ {
			entries = append(entries, sparse.Coord{Row: r, Col: rng.Intn(sc.n), Val: rng.Float64() + 0.1})
		}
	}
	return sparse.NewFromCoords(sc.n, sc.n, entries)
}

func denseVec(n int) []float64 {
	rng := rand.New(rand.NewSource(7))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// benchModes runs fn once per execution mode with the parallelism knob
// set accordingly and restored afterwards.
func benchModes(b *testing.B, fn func(b *testing.B)) {
	for _, mode := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(mode.name, func(b *testing.B) {
			old := sparse.Parallelism(0)
			sparse.Parallelism(mode.workers)
			defer sparse.Parallelism(old)
			fn(b)
		})
	}
}

func BenchmarkMulVec(b *testing.B) {
	for _, sc := range kernelScales {
		m := kernelMatrix(sc)
		x := denseVec(sc.n)
		y := make([]float64, sc.n)
		b.Run(sc.name, func(b *testing.B) {
			benchModes(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.MulVec(x, y)
				}
			})
		})
	}
}

func BenchmarkMulVecT(b *testing.B) {
	for _, sc := range kernelScales {
		m := kernelMatrix(sc)
		x := denseVec(sc.n)
		y := make([]float64, sc.n)
		b.Run(sc.name, func(b *testing.B) {
			benchModes(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.MulVecT(x, y)
				}
			})
		})
	}
}

func BenchmarkMulSparse(b *testing.B) {
	for _, sc := range kernelScales {
		m := kernelMatrix(sc)
		b.Run(sc.name, func(b *testing.B) {
			benchModes(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.Mul(m)
				}
			})
		})
	}
}

func BenchmarkTranspose(b *testing.B) {
	for _, sc := range kernelScales {
		m := kernelMatrix(sc)
		b.Run(sc.name, func(b *testing.B) {
			benchModes(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.Transpose()
				}
			})
		})
	}
}

func BenchmarkRowNormalized(b *testing.B) {
	for _, sc := range kernelScales {
		m := kernelMatrix(sc)
		b.Run(sc.name, func(b *testing.B) {
			benchModes(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.RowNormalized()
				}
			})
		})
	}
}

// --- top-k selection vs row population --------------------------------

// topKIndexes builds the two row-shape regimes the selection must win
// on: the APVPA index (venue-mediated — authors of an area form a
// near-clique, so rows are dense) and the APA co-author index (rows
// hold only direct collaborators, so they are sparse).
func topKIndexes(b *testing.B) (dense, sparseIx *pathsim.Index) {
	b.Helper()
	c := dblp.Generate(stats.NewRNG(1), dblp.Config{})
	dense = pathsim.NewIndex(c.Net, hin.MetaPath{
		dblp.TypeAuthor, dblp.TypePaper, dblp.TypeVenue, dblp.TypePaper, dblp.TypeAuthor,
	})
	sparseIx = pathsim.NewIndex(c.Net, hin.MetaPath{
		dblp.TypeAuthor, dblp.TypePaper, dblp.TypeAuthor,
	})
	return dense, sparseIx
}

// BenchmarkTopK measures single-query top-k selection at k well below
// and near typical row populations, on dense and sparse rows. The
// threshold selection is O(m + k·log k) per population-m row where a
// full sort pays O(m·log m).
func BenchmarkTopK(b *testing.B) {
	dense, sparseIx := topKIndexes(b)
	for _, tc := range []struct {
		name string
		ix   *pathsim.Index
	}{{"dense-rows", dense}, {"sparse-rows", sparseIx}} {
		n := tc.ix.Dim()
		for _, k := range []int{10, 100} {
			b.Run(fmt.Sprintf("%s/k=%d", tc.name, k), func(b *testing.B) {
				b.ReportMetric(float64(tc.ix.NNZ())/float64(n), "avgRowNNZ")
				for i := 0; i < b.N; i++ {
					tc.ix.TopK(i%n, k)
				}
			})
		}
	}
}

// BenchmarkBatchTopK measures the bulk entry point (one query per
// author): all results are carved from a single arena, so allocs/op
// stays O(1) per batch regardless of batch size or row population.
func BenchmarkBatchTopK(b *testing.B) {
	dense, sparseIx := topKIndexes(b)
	for _, tc := range []struct {
		name string
		ix   *pathsim.Index
	}{{"dense-rows", dense}, {"sparse-rows", sparseIx}} {
		queries := make([]int, tc.ix.Dim())
		for i := range queries {
			queries[i] = i
		}
		for _, k := range []int{10, 100} {
			b.Run(fmt.Sprintf("%s/k=%d", tc.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := tc.ix.BatchTopKCtx(context.Background(), queries, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPageRankFused measures the fused PageRank path: "full" runs
// the whole call (RowInvSums once, no row-stochastic matrix copy);
// "iteration" isolates one steady-state power iteration, which with the
// fused MulVecTNorm kernel allocates nothing.
func BenchmarkPageRankFused(b *testing.B) {
	g := netgen.BarabasiAlbert(stats.NewRNG(1), 3000, 3)
	adj := g.Adjacency()
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rank.PageRank(adj, rank.Options{})
		}
	})
	b.Run("iteration", func(b *testing.B) {
		n := adj.Rows()
		inv := adj.RowInvSums()
		x := make([]float64, n)
		next := make([]float64, n)
		for i := range x {
			x[i] = 1 / float64(n)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			adj.MulVecTNorm(x, inv, next)
			x, next = next, x
		}
	})
}

// BenchmarkPathSimBatchTopK measures bulk similarity serving through
// the parallel engine (one TopK per author over the APVPA index).
func BenchmarkPathSimBatchTopK(b *testing.B) {
	c := dblp.Generate(stats.NewRNG(1), dblp.Config{
		VenuesPerArea: 3, AuthorsPerArea: 60, TermsPerArea: 40,
		SharedTerms: 20, Papers: 800,
	})
	path := hin.MetaPath{dblp.TypeAuthor, dblp.TypePaper, dblp.TypeVenue, dblp.TypePaper, dblp.TypeAuthor}
	ix := pathsim.NewIndex(c.Net, path)
	// 10 query rounds over every author push the batch's work estimate
	// past the serial threshold, so the parallel mode actually
	// exercises the parallel fan-out rather than the serial fallback.
	na := c.Net.Count(dblp.TypeAuthor)
	queries := make([]int, 10*na)
	for i := range queries {
		queries[i] = i % na
	}
	benchModes(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.BatchTopKCtx(context.Background(), queries, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- serving layer: cold vs cached vs concurrent top-k ---------------

// newBenchServer builds a serving stack over an 800-paper corpus.
// cacheCap < 0 disables the result cache so every query pays the full
// index scan.
func newBenchServer(b *testing.B, cacheCap int) *serve.Server {
	b.Helper()
	srv := serve.New(serve.Options{
		Seed:          1,
		CacheCapacity: cacheCap,
		Models: serve.ModelConfig{Corpus: dblp.Config{
			VenuesPerArea: 3, AuthorsPerArea: 60, TermsPerArea: 40,
			SharedTerms: 20, Papers: 800,
		}},
	})
	b.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	return srv
}

// BenchmarkServeTopK serves the same hot query stream (an 8-id working
// set, k=10) three ways: uncached sequential singles (every query pays
// the full index scan), cache hits, and "batched" — concurrent uncached
// clients, each miss one kernel call on its own goroutine, so misses on
// different cores compute side by side. The sub-benchmark keeps its
// name so benchmark filters stay stable. Cached must beat uncached.
func BenchmarkServeTopK(b *testing.B) {
	const hotSet = 8
	ctx := context.Background()
	b.Run("uncached", func(b *testing.B) {
		srv := newBenchServer(b, -1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := srv.TopK(ctx, i%hotSet, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		srv := newBenchServer(b, 8192)
		for x := 0; x < hotSet; x++ { // warm the working set
			if _, _, err := srv.TopK(ctx, x, 10); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := srv.TopK(ctx, i%hotSet, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		srv := newBenchServer(b, -1)
		b.SetParallelism(32) // 32×GOMAXPROCS concurrent clients
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := rand.Int()
			for pb.Next() {
				if _, _, err := srv.TopK(ctx, i%hotSet, 10); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
}

// --- Sharded scatter-gather tier -------------------------------------

// BenchmarkClusterTopK measures the scatter-gather top-k path through
// the in-process sharded coordinator at 1, 2, and 4 shards on the same
// 800-paper corpus BenchmarkServeTopK uses. Each query scatters to all
// shards (each scans only its nnz-balanced column slice of the APVPA
// index) and the coordinator merges the partials; the single-shard rows
// are the scatter-gather overhead baseline — one shard scans the whole
// index, so any gap versus multi-shard rows is pure fan-out/merge cost.
func BenchmarkClusterTopK(b *testing.B) {
	ctx := context.Background()
	spec := cluster.ModelSpec{Corpus: dblp.Config{
		VenuesPerArea: 3, AuthorsPerArea: 60, TermsPerArea: 40,
		SharedTerms: 20, Papers: 800,
	}}
	// One full index up front supplies the row-nnz weights the
	// nnz-balanced partitioner needs (the same weights `hinet serve
	// -shards N` reads off the store's snapshot).
	full := cluster.BuildModels(1, spec)
	path := cluster.PathAPVPA
	dim := full.PathSim.Dim()
	for _, shards := range []int{1, 2, 4} {
		part := cluster.PartitionByNNZ(string(path[0]), dim, shards, full.PathSim.M.RowNNZ)
		coord, err := cluster.NewLocalCluster(shards, part, spec, nil, 1)
		if err != nil {
			b.Fatal(err)
		}
		view := coord.View()
		for _, k := range []int{10, 100} {
			b.Run(fmt.Sprintf("shards=%d/k=%d", shards, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := view.TopK(ctx, path.String(), i%dim, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Incremental ingestion & delta rebuild ---------------------------

// BenchmarkDeltaApply measures the copy-on-write CSR delta merge
// against the from-scratch rebuild it replaces: a 1% coordinate batch
// merged into the large kernel matrix (≈1M nnz) versus rebuilding the
// matrix from its full coordinate list. The acceptance target for the
// ingestion subsystem is delta ≥ 5× faster than rebuild.
func BenchmarkDeltaApply(b *testing.B) {
	sc := kernelScales[2] // large-1M
	rng := rand.New(rand.NewSource(int64(sc.n)))
	coords := make([]sparse.Coord, 0, sc.n*sc.deg)
	for r := 0; r < sc.n; r++ {
		for j := 0; j < sc.deg; j++ {
			coords = append(coords, sparse.Coord{Row: r, Col: rng.Intn(sc.n), Val: float64(1 + rng.Intn(4))})
		}
	}
	m := sparse.NewFromCoords(sc.n, sc.n, coords)
	delta := make([]sparse.Coord, len(coords)/100)
	for i := range delta {
		if i%2 == 0 {
			// Half the batch perturbs existing entries.
			e := coords[rng.Intn(len(coords))]
			delta[i] = sparse.Coord{Row: e.Row, Col: e.Col, Val: 1}
		} else {
			delta[i] = sparse.Coord{Row: rng.Intn(sc.n), Col: rng.Intn(sc.n), Val: 1}
		}
	}
	all := append(append([]sparse.Coord(nil), coords...), delta...)
	b.Run("delta-1pct", func(b *testing.B) {
		b.ReportMetric(float64(len(delta)), "delta-coords")
		for i := 0; i < b.N; i++ {
			m.ApplyDelta(delta)
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparse.NewFromCoords(sc.n, sc.n, all)
		}
	})
}

// BenchmarkIngest measures the serving layer's two paths to a new
// generation on the default DBLP-scale corpus: cluster.IngestModels of
// a 1% paper-arrival batch (copy-on-write clone, merged relations,
// meta-path products patched from the previous generation's — or, past
// a quarter of the rows dirty, rebuilt — warm-started PageRank and
// HITS, carried-over cluster models) versus the full
// cluster.BuildModels that POST /v1/rebuild runs.
func BenchmarkIngest(b *testing.B) {
	spec := cluster.ModelSpec{}
	m := cluster.BuildModels(1, spec)
	papers := m.Corpus.Net.Count(dblp.TypePaper)
	batch := ingest.SamplePapers(m.Corpus, stats.NewRNG(77), papers/100)
	b.Run(fmt.Sprintf("delta-%dpapers", papers/100), func(b *testing.B) {
		b.ReportMetric(float64(len(batch)), "deltas")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if m, _, err = cluster.IngestModels(m, batch, false, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster.BuildModels(int64(i+2), spec)
		}
	})
}

// --- Load generation -------------------------------------------------

// BenchmarkLoadgenGenerate measures schedule generation throughput: the
// harness must be able to synthesize schedules orders of magnitude
// faster than it plays them, or the generator (not the server) becomes
// the bottleneck of a capacity sweep.
func BenchmarkLoadgenGenerate(b *testing.B) {
	corpus := dblp.Generate(stats.NewRNG(1), dblp.Config{})
	ks, err := loadgen.NewKeyspace(corpus, []string{"", "A-P-A"})
	if err != nil {
		b.Fatal(err)
	}
	cfg := loadgen.Config{Seed: 42, Rate: 1000, Duration: 10 * time.Second}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := loadgen.Generate(cfg, ks)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(tr.Events)), "events")
		}
	}
}
