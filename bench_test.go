// Package hinet_test is the benchmark harness: one testing.B benchmark
// per reproduced table/figure (E1–E16, internal/experiments) plus the ablations.
// Each benchmark times the core computation and attaches the
// experiment's quality metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates both the performance and the quality side of every
// experiment. cmd/experiments prints the same tables in full. Beside
// them sit the sparse kernels timed serial against parallel and the
// load generator's schedule synthesis, which the serving benchmark
// does not reach. What the server runs — PathSim top-k, the cache,
// the cluster tier, ingestion, PageRank, commuting matrices — is timed
// once, by the ladder and workloads of `sh bench/run.sh`.
package hinet_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hinet/internal/classify"
	"hinet/internal/core"
	"hinet/internal/crossmine"
	"hinet/internal/dblp"
	"hinet/internal/eval"
	"hinet/internal/experiments"
	"hinet/internal/flickr"
	"hinet/internal/hin"
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
			xx, _ := bip.W.MulCtx(context.Background(), bip.W.Transpose())
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
					m.MulCtx(context.Background(), m)
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
