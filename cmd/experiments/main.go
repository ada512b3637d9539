// Command experiments runs every reproduction experiment of package
// internal/experiments (E1–E16 plus ablations), whose doc comments say
// which published table each reconstructs, and prints the paper-style
// tables. README's Quickstart shows how to run it.
//
// Usage:
//
//	experiments [-seed N] [-only E2,E10]
package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"hinet/internal/experiments"
)

type experiment struct {
	id    string
	title string
	run   func(seed int64) []experiments.Row
}

func main() {
	seed := flag.Int64("seed", 1, "base RNG seed")
	only := flag.String("only", "", "comma-separated experiment ids to run (default all)")
	flag.Parse()

	all := []experiment{
		{"E1", "RankClus DBLP case study (EDBT'09 Tables 5-7)", experiments.E1RankClusCaseStudy},
		{"E2", "RankClus accuracy vs baselines (EDBT'09 Table 4)", experiments.E2Accuracy},
		{"E3", "RankClus vs SimRank scalability (EDBT'09 Figs 6-8)", func(s int64) []experiments.Row {
			return experiments.E3Scale(s, []int{100, 200, 400})
		}},
		{"E4", "NetClus clustering accuracy (KDD'09 Table 3)", experiments.E4NetClusAccuracy},
		{"E5", "NetClus conditional ranking (KDD'09 Tables 1-2)", experiments.E5NetClusRanking},
		{"E6", "PageRank and HITS on a web-like graph (tutorial 2b.ii)", func(s int64) []experiments.Row {
			return experiments.E6PageRankHITS(s, 3000)
		}},
		{"E7", "SimRank vs co-citation (KDD'02 sec 5)", experiments.E7SimRank},
		{"E8", "SCAN communities, hubs, outliers (KDD'07)", experiments.E8SCAN},
		{"E9", "Network statistics: power law, small world, densification", experiments.E9NetStats},
		{"E10", "TruthFinder veracity analysis (TKDE'08)", experiments.E10TruthFinder},
		{"E11", "DISTINCT object distinction (ICDE'07 Table 2)", experiments.E11Distinct},
		{"E12", "PathSim peer search (tutorial 7b)", experiments.E12PathSim},
		{"E13", "CrossMine cross-relational classification (TKDE'06)", experiments.E13CrossMine},
		{"E14", "CrossClus user-guided clustering (DMKD'07)", experiments.E14CrossClus},
		{"E15", "Information-network OLAP (iNextCube VLDB'09)", experiments.E15OLAP},
		{"E16", "Heterogeneous network classification (tutorial 5b-c)", experiments.E16Classify},
		{"A1", "Ablation: LinkClus low-rank vs SimRank (tutorial 4a)", experiments.AblationLinkClus},
		{"A2", "Ablation: RankClus smoothing sweep", experiments.AblationRankClusSmoothing},
		{"A3", "Ablation: SCAN epsilon sweep", experiments.AblationSCANEpsilon},
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	for _, ex := range all {
		if len(want) > 0 && !want[ex.id] {
			continue
		}
		fmt.Printf("== %s: %s\n", ex.id, ex.title)
		t0 := time.Now()
		rows := ex.run(*seed)
		for _, r := range rows {
			fmt.Println("   " + r.Format())
		}
		fmt.Printf("   (%.2fs)\n\n", time.Since(t0).Seconds())
	}
}
