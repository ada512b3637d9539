package experiments

import (
	"context"
	"fmt"
	"time"

	"hinet/internal/crossclus"
	"hinet/internal/crossmine"
	"hinet/internal/dblp"
	"hinet/internal/eval"
	"hinet/internal/kmeans"
	"hinet/internal/linkclus"
	"hinet/internal/netclus"
	"hinet/internal/netgen"
	"hinet/internal/netstat"
	"hinet/internal/olap"
	"hinet/internal/pathsim"
	"hinet/internal/rank"
	"hinet/internal/relational"
	"hinet/internal/scan"
	"hinet/internal/simrank"
	"hinet/internal/spectral"
	"hinet/internal/stats"

	"hinet/internal/core"
	"hinet/internal/hin"
)

// E4NetClusAccuracy reproduces NetClus KDD'09 Table 3: clustering
// quality of NetClus on the full star network vs RankClus on the
// collapsed venue–author bipartite view vs a link-blind PLSA-style
// baseline (NetClus with LambdaB ≈ 1, which collapses every cluster
// distribution to the background and leaves only the prior mixture).
func E4NetClusAccuracy(seed int64) []Row {
	c := dblp.Generate(stats.NewRNG(seed), DefaultDBLP())
	k := c.Areas()

	nc := netclus.Run(stats.NewRNG(seed+1), c.Star(), netclus.Options{K: k, Restarts: 2})
	paperNMI := eval.NMI(c.PaperArea, nc.AssignCenter)
	venueNMI := eval.NMI(c.VenueArea, nc.AssignAttr(1))
	authorNMI := eval.NMI(c.AuthorArea, nc.AssignAttr(0))

	rc := core.Run(stats.NewRNG(seed+2), c.VenueAuthorBipartite(), core.Options{K: k, Restarts: 2})
	rcVenueNMI := eval.NMI(c.VenueArea, rc.Assign)

	// Link-blind baseline: terms-only clustering via k-means on paper
	// term distributions (bag of words without network structure).
	pt := c.Net.Relation(dblp.TypePaper, dblp.TypeTerm)
	pts := make([][]float64, pt.Rows())
	for p := range pts {
		pts[p] = make([]float64, pt.Cols())
		pt.Row(p, func(t int, w float64) { pts[p][t] = w })
	}
	km := kmeans.Cluster(stats.NewRNG(seed+3), pts, k, kmeans.Options{Restarts: 1, MaxIter: 20})
	bowNMI := eval.NMI(c.PaperArea, km.Assign)

	return []Row{
		{
			Label:   "paper clustering NMI",
			Columns: []string{"NetClus", "BagOfWords-kmeans"},
			Values:  []float64{paperNMI, bowNMI},
		},
		{
			Label:   "venue clustering NMI",
			Columns: []string{"NetClus", "RankClus(bipartite)"},
			Values:  []float64{venueNMI, rcVenueNMI},
		},
		{
			Label:   "author clustering NMI",
			Columns: []string{"NetClus"},
			Values:  []float64{authorNMI},
		},
	}
}

// E5NetClusRanking reproduces the NetClus conditional-rank tables
// (KDD'09 Tables 1–2): area coherence of each net-cluster's top-ranked
// venues and terms, and the rank mass they capture.
func E5NetClusRanking(seed int64) []Row {
	c := dblp.Generate(stats.NewRNG(seed), DefaultDBLP())
	k := c.Areas()
	m := netclus.Run(stats.NewRNG(seed+1), c.Star(), netclus.Options{K: k, Restarts: 5})

	var rows []Row
	va := m.AssignAttr(1)
	for cl := 0; cl < k; cl++ {
		// Dominant area by venue label votes.
		votes := map[int]int{}
		for v, a := range va {
			if a == cl {
				votes[c.VenueArea[v]]++
			}
		}
		dom, bv := 0, -1
		for area, n := range votes {
			if n > bv {
				bv, dom = n, area
			}
		}
		topV := m.TopAttr(1, cl, 4)
		vHit := 0
		vMass := 0.0
		for _, v := range topV {
			if c.VenueArea[v] == dom {
				vHit++
			}
			vMass += m.RankDist[1][cl][v]
		}
		topT := m.TopAttr(2, cl, 10)
		tHit := 0
		for _, t := range topT {
			if c.TermArea[t] == dom {
				tHit++
			}
		}
		rows = append(rows, Row{
			Label:   fmt.Sprintf("net-cluster %d (area %s)", cl, c.Config.Areas[dom]),
			Columns: []string{"top4venue-coh", "top4venue-mass", "top10term-coh"},
			Values:  []float64{float64(vHit) / 4, vMass, float64(tHit) / 10},
		})
	}
	return rows
}

// E8SCAN reproduces the SCAN community study: recovery quality on a
// planted partition (members only), hub/outlier detection, and runtime
// vs spectral clustering.
func E8SCAN(seed int64) []Row {
	rng := stats.NewRNG(seed)
	g, truthL := netgen.PlantedPartition(rng, 4, 60, 0.35, 0.01)
	// Attach two deliberate hubs and two outliers.
	hub1 := g.AddNode("hub1")
	hub2 := g.AddNode("hub2")
	for k := 0; k < 4; k++ {
		g.AddEdge(hub1, k*60+1, 1)
		g.AddEdge(hub2, k*60+2, 1)
	}
	out1 := g.AddNode("out1")
	out2 := g.AddNode("out2")
	g.AddEdge(out1, 0, 1)
	g.AddEdge(out2, 61, 1)

	t0 := time.Now()
	res := scan.Run(g, scan.Options{Epsilon: 0.5, Mu: 3})
	scanMS := time.Since(t0).Seconds() * 1000

	var pt, pp []int
	for v := 0; v < len(truthL); v++ {
		if res.Cluster[v] >= 0 {
			pt = append(pt, truthL[v])
			pp = append(pp, res.Cluster[v])
		}
	}
	hubsFound := 0
	if res.Role[hub1] == scan.RoleHub {
		hubsFound++
	}
	if res.Role[hub2] == scan.RoleHub {
		hubsFound++
	}
	outliersFound := 0
	if res.Role[out1] == scan.RoleOutlier {
		outliersFound++
	}
	if res.Role[out2] == scan.RoleOutlier {
		outliersFound++
	}

	t0 = time.Now()
	sp := spectral.Cluster(stats.NewRNG(seed+1), g, 4, spectral.Options{})
	spectralMS := time.Since(t0).Seconds() * 1000
	spNMI := eval.NMI(truthL, sp.Assign[:len(truthL)])

	return []Row{{
		Label:   "planted 4x60 + hubs/outliers",
		Columns: []string{"SCAN-NMI", "Spectral-NMI", "hubs", "outliers", "SCAN-ms", "Spectral-ms"},
		Values:  []float64{eval.NMI(pt, pp), spNMI, float64(hubsFound), float64(outliersFound), scanMS, spectralMS},
	}}
}

// E9NetStats reproduces the tutorial's network-measurement section:
// power-law fit on BA vs ER, small-world signature of WS, and the
// densification exponent of forest fire growth.
func E9NetStats(seed int64) []Row {
	ba := netgen.BarabasiAlbert(stats.NewRNG(seed), 4000, 3)
	er := netgen.ErdosRenyi(stats.NewRNG(seed+1), 4000, 6.0/3999)
	ws := netgen.WattsStrogatz(stats.NewRNG(seed+2), 2000, 8, 0.1)
	_, snaps := netgen.ForestFire(stats.NewRNG(seed+3), 3000, 0.35, 0.3, 300)

	baAlpha, _ := netstat.PowerLawFit(ba, 6)
	erAlpha, _ := netstat.PowerLawFit(er, 6)
	var nodes, edges []int
	for _, s := range snaps {
		nodes = append(nodes, s.Nodes)
		edges = append(edges, s.Edges)
	}
	return []Row{
		{
			Label:   "power-law MLE alpha (dmin=6)",
			Columns: []string{"BarabasiAlbert", "ErdosRenyi"},
			Values:  []float64{baAlpha, erAlpha},
		},
		{
			Label:   "small world (WS n=2000 k=8 beta=0.1)",
			Columns: []string{"clustering", "ER-clustering", "avgPath"},
			Values: []float64{
				netstat.ClusteringCoefficient(ws),
				netstat.ClusteringCoefficient(netgen.ErdosRenyi(stats.NewRNG(seed+4), 2000, 8.0/1999)),
				netstat.AveragePathLength(ws, 50),
			},
		},
		{
			Label:   "forest-fire densification",
			Columns: []string{"exponent"},
			Values:  []float64{netstat.DensificationExponent(nodes, edges)},
		},
	}
}

// E12PathSim reproduces the peer-search comparison (PathSim Table 4
// shape): precision of top-10 same-area peers under PathSim vs
// Personalized PageRank vs SimRank on the APVPA meta path, averaged
// over the most productive authors.
func E12PathSim(seed int64) []Row {
	c := dblp.Generate(stats.NewRNG(seed), dblp.Config{
		VenuesPerArea:  3,
		AuthorsPerArea: 60,
		TermsPerArea:   40,
		SharedTerms:    20,
		Papers:         800,
	})
	path := hin.MetaPath{dblp.TypeAuthor, dblp.TypePaper, dblp.TypeVenue, dblp.TypePaper, dblp.TypeAuthor}
	ix, err := pathsim.NewRangeIndexCtx(context.Background(), c.Net, path, 0, c.Net.Count(dblp.TypeAuthor))
	if err != nil {
		panic(err)
	}

	// Author–author random-walk graph for PPR along the same path: its
	// commuting matrix, which the index never stores (it answers from the
	// half-path factor).
	m := c.Net.CommutingMatrix(path)

	// SimRank on author–venue bipartite (APV collapsed) — the engine
	// hands back APVPA's cached half-path product.
	av := c.Net.CommutingMatrix(hin.MetaPath{dblp.TypeAuthor, dblp.TypePaper, dblp.TypeVenue})
	sr := simrank.Bipartite(av, simrank.Options{MaxIter: 5}).SX

	pa := c.Net.Relation(dblp.TypePaper, dblp.TypeAuthor)
	deg := make([]float64, c.Net.Count(dblp.TypeAuthor))
	for p := 0; p < pa.Rows(); p++ {
		pa.Row(p, func(a int, v float64) { deg[a] += v })
	}
	queries := stats.TopK(deg, 12)

	precAt10 := func(scores []float64, q int) float64 {
		rel := map[int]bool{}
		for a, ar := range c.AuthorArea {
			if a != q && ar == c.AuthorArea[q] {
				rel[a] = true
			}
		}
		scores[q] = -1 // exclude self
		return eval.PrecisionAtK(scores, rel, 10)
	}

	var ps, ppr, srp float64
	for _, q := range queries {
		ps += precAt10(ix.AllScores(q), q)

		restart := make([]float64, m.Rows())
		restart[q] = 1
		pr := rank.Personalized(m, restart, rank.Options{MaxIter: 30})
		ppr += precAt10(append([]float64(nil), pr.Scores...), q)

		srScores := append([]float64(nil), sr[q]...)
		srp += precAt10(srScores, q)
	}
	n := float64(len(queries))
	return []Row{{
		Label:   "peer precision@10 (APVPA, 12 busiest authors)",
		Columns: []string{"PathSim", "PPageRank", "SimRank"},
		Values:  []float64{ps / n, ppr / n, srp / n},
	}}
}

// E13CrossMine reproduces the cross-relational classification table:
// accuracy and train time of CrossMine vs the flattened single-table 1R
// learner on the synthetic customer schema.
func E13CrossMine(seed int64) []Row {
	s := relational.SyntheticCustomers(stats.NewRNG(seed), relational.SynthConfig{Customers: 600})
	var train, test []int
	for i := 0; i < 600; i++ {
		if i < 360 {
			train = append(train, i)
		} else {
			test = append(test, i)
		}
	}
	t0 := time.Now()
	cm := crossmine.Train(s.DB, "customer", s.Class, train, crossmine.Options{})
	cmMS := time.Since(t0).Seconds() * 1000
	t0 = time.Now()
	st := crossmine.TrainSingleTable(s.DB, "customer", s.Class, train)
	stMS := time.Since(t0).Seconds() * 1000
	return []Row{{
		Label:   "customer class (600 tuples, 60/40 split)",
		Columns: []string{"CrossMine-acc", "1R-acc", "CrossMine-ms", "1R-ms", "rules"},
		Values: []float64{
			cm.Accuracy(s.Class, test),
			st.Accuracy(s.DB, "customer", s.Class, test),
			cmMS, stMS, float64(len(cm.Rules)),
		},
	}}
}

// E14CrossClus reproduces the guided-clustering comparison: NMI to the
// latent customer groups for CrossClus vs guidance-only vs unguided
// all-features k-means.
func E14CrossClus(seed int64) []Row {
	const reps = 3
	var g, alone, ung float64
	for r := int64(0); r < reps; r++ {
		s := relational.SyntheticCustomers(stats.NewRNG(seed+11*r), relational.SynthConfig{Customers: 400, ProfileNoise: 0.35})
		guided := crossclus.Run(stats.NewRNG(seed+r+1), s.DB, "customer", "profile", crossclus.Options{K: 3})
		unguided := crossclus.UnguidedBaseline(stats.NewRNG(seed+r+2), s.DB, "customer", 3, 2, kmeans.Options{})
		cust := s.DB.Table("customer")
		profLabels := make([]int, len(cust.Rows))
		for i, row := range cust.Rows {
			profLabels[i] = int(row[1].(string)[1] - '0')
		}
		g += eval.NMI(s.Group, guided.Assign) / reps
		alone += eval.NMI(s.Group, profLabels) / reps
		ung += eval.NMI(s.Group, unguided) / reps
	}
	return []Row{{
		Label:   "latent customer groups (noise 0.35, 3 seeds)",
		Columns: []string{"CrossClus", "guidance-only", "unguided"},
		Values:  []float64{g, alone, ung},
	}}
}

// E15OLAP reproduces the iNextCube-style cube report: build the
// venue×author network cube over (year, area), roll up, and time the
// operations; cells must conserve total link mass.
func E15OLAP(seed int64) []Row {
	c := dblp.Generate(stats.NewRNG(seed), DefaultDBLP())
	years := make([]string, c.Config.Years)
	for y := range years {
		years[y] = fmt.Sprintf("%d", 2000+y)
	}
	dims := []olap.Dimension{
		{Name: "year", Values: years},
		{Name: "area", Values: c.Config.Areas},
	}
	t0 := time.Now()
	cube := olap.NewCube(dims, c.Net.Count(dblp.TypeVenue), c.Net.Count(dblp.TypeAuthor))
	pv := c.Net.Relation(dblp.TypePaper, dblp.TypeVenue)
	pa := c.Net.Relation(dblp.TypePaper, dblp.TypeAuthor)
	for p := 0; p < c.Net.Count(dblp.TypePaper); p++ {
		pv.Row(p, func(v int, _ float64) {
			pa.Row(p, func(a int, _ float64) {
				cube.Add(olap.Event{Src: v, Dst: a, Weight: 1, Coords: []int{c.PaperYear[p], c.PaperArea[p]}})
			})
		})
	}
	buildMS := time.Since(t0).Seconds() * 1000

	t0 = time.Now()
	total := cube.Slice(olap.CellQuery{-1, -1}).TotalWeight()
	cellSum := 0.0
	for y := range years {
		for a := range c.Config.Areas {
			cellSum += cube.Slice(olap.CellQuery{y, a}).TotalWeight()
		}
	}
	sliceMS := time.Since(t0).Seconds() * 1000

	t0 = time.Now()
	byArea := cube.RollUp(0)
	rows := byArea.DrillCells(0)
	rollupMS := time.Since(t0).Seconds() * 1000
	_ = rows

	return []Row{{
		Label:   fmt.Sprintf("venue-author cube (%d events)", cube.Events()),
		Columns: []string{"build-ms", "20cell-slice-ms", "rollup-ms", "massConserved"},
		Values:  []float64{buildMS, sliceMS, rollupMS, boolTo01(total == cellSum)},
	}}
}

// AblationLinkClus compares LinkClus-style low-rank similarity to
// bipartite SimRank: rank agreement and runtime — the LinkClus
// speed/quality trade the tutorial's §4a highlights.
func AblationLinkClus(seed int64) []Row {
	cfg := netgen.BiTypedConfig{
		K:     3,
		Nx:    []int{15, 15, 15},
		Ny:    []int{120, 120, 120},
		Links: []int{600, 600, 600},
		Cross: 0.15,
		Skew:  0.9,
	}
	res := netgen.BiTyped(stats.NewRNG(seed), cfg)
	w := res.Net.Relation(res.X, res.Y)

	t0 := time.Now()
	m := linkclus.Fit(stats.NewRNG(seed+1), w, linkclus.Options{})
	lcMS := time.Since(t0).Seconds() * 1000

	t0 = time.Now()
	sr := simrank.Bipartite(w, simrank.Options{MaxIter: 8})
	srMS := time.Since(t0).Seconds() * 1000

	var a, b []float64
	nx := w.Rows()
	for i := 0; i < nx; i++ {
		for j := i + 1; j < nx; j++ {
			a = append(a, m.Sim(i, j))
			b = append(b, sr.SX[i][j])
		}
	}
	assign := m.Cluster(stats.NewRNG(seed+2), 3)
	return []Row{{
		Label:   "LinkClus vs SimRank (45x360 bipartite)",
		Columns: []string{"tau", "clusterNMI", "LinkClus-ms", "SimRank-ms"},
		Values: []float64{
			eval.KendallTau(a, b),
			eval.NMI(res.TruthX, assign),
			lcMS, srMS,
		},
	}}
}

// AblationRankClusSmoothing sweeps the RankClus smoothing parameter —
// a design choice of RankClus (zero smoothing risks
// zero-probability attribute objects; heavy smoothing blurs clusters).
func AblationRankClusSmoothing(seed int64) []Row {
	var rows []Row
	for _, lam := range []float64{0.02, 0.1, 0.3, 0.6, 0.9} {
		b, truthX := e2Workload(seed, E2Config{Name: "med", Cross: 0.2, Scale: 1})
		m := core.Run(stats.NewRNG(seed+1), b, core.Options{K: 3, Smoothing: lam, Restarts: 2})
		rows = append(rows, Row{
			Label:   fmt.Sprintf("smoothing=%.2f", lam),
			Columns: []string{"NMI"},
			Values:  []float64{eval.NMI(truthX, m.Assign)},
		})
	}
	return rows
}

// AblationSCANEpsilon sweeps SCAN's ε — the tuning curve from the SCAN
// paper's parameter study.
func AblationSCANEpsilon(seed int64) []Row {
	g, _ := netgen.PlantedPartition(stats.NewRNG(seed), 3, 50, 0.4, 0.02)
	var rows []Row
	for _, p := range scan.EpsilonSweep(g, 3, []float64{0.3, 0.45, 0.6, 0.75, 0.9}) {
		rows = append(rows, Row{
			Label:   fmt.Sprintf("epsilon=%.2f", p.Epsilon),
			Columns: []string{"clusters", "memberFrac", "hubs", "outliers"},
			Values:  []float64{float64(p.Clusters), p.MemberFrac, float64(p.Hubs), float64(p.Outliers)},
		})
	}
	return rows
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
