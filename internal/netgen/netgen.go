// Package netgen generates the synthetic networks the tutorial's
// statistics section (§2a) analyses and the clustering experiments need
// as planted ground truth:
//
//   - Erdős–Rényi G(n, p) — the null model for clustering coefficient,
//   - Watts–Strogatz — the small-world phenomenon,
//   - Barabási–Albert — the power-law (preferential attachment) model,
//   - forest fire — densification over time (Leskovec et al.),
//   - planted partition — community ground truth for SCAN/spectral, and
//   - BiTyped — the planted bi-typed network of the RankClus synthetic
//     accuracy study (EDBT'09 §5.2).
//
// All generators take an explicit *stats.RNG so runs replay exactly.
package netgen

import (
	"fmt"
	"slices"

	"hinet/internal/graph"
	"hinet/internal/hin"
	"hinet/internal/stats"
)

// ErdosRenyi samples G(n, p): each unordered pair is an edge with
// probability p.
func ErdosRenyi(rng *stats.RNG, n int, p float64) *graph.Graph {
	g := graph.New(n, false)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j, 1)
			}
		}
	}
	return g
}

// WattsStrogatz builds the small-world ring lattice: n nodes, each
// joined to its k nearest neighbors (k even), with each edge rewired to
// a random target with probability beta.
func WattsStrogatz(rng *stats.RNG, n, k int, beta float64) *graph.Graph {
	if k%2 != 0 || k >= n {
		panic("netgen: WattsStrogatz needs even k < n")
	}
	type pair struct{ u, v int }
	edges := make(map[pair]bool)
	for i := 0; i < n; i++ {
		for d := 1; d <= k/2; d++ {
			j := (i + d) % n
			edges[pair{min(i, j), max(i, j)}] = true
		}
	}
	// Rewire: iterate deterministic lattice order.
	for i := 0; i < n; i++ {
		for d := 1; d <= k/2; d++ {
			j := (i + d) % n
			key := pair{min(i, j), max(i, j)}
			if !edges[key] || rng.Float64() >= beta {
				continue
			}
			// pick new endpoint avoiding self loops and duplicates
			for attempt := 0; attempt < 20; attempt++ {
				t := rng.Intn(n)
				if t == i {
					continue
				}
				nk := pair{min(i, t), max(i, t)}
				if edges[nk] {
					continue
				}
				delete(edges, key)
				edges[nk] = true
				break
			}
		}
	}
	g := graph.New(n, false)
	for e := range edges {
		g.AddEdge(e.u, e.v, 1)
	}
	return g
}

// BarabasiAlbert grows a preferential-attachment graph: start from a
// small clique of m+1 nodes; each new node attaches to m existing nodes
// chosen proportionally to their current degree. The result has a
// power-law degree distribution with exponent ≈ 3.
func BarabasiAlbert(rng *stats.RNG, n, m int) *graph.Graph {
	if m < 1 || n <= m {
		panic("netgen: BarabasiAlbert needs 1 <= m < n")
	}
	g := graph.New(n, false)
	// repeated-endpoint list implements preferential attachment in O(1)
	var endpoints []int
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			g.AddEdge(i, j, 1)
			endpoints = append(endpoints, i, j)
		}
	}
	// The targets are kept in draw order, so a seed fixes the graph.
	chosen := make([]int, 0, m)
	for v := m + 1; v < n; v++ {
		chosen = chosen[:0]
		for len(chosen) < m {
			t := endpoints[rng.Intn(len(endpoints))]
			if t != v && !slices.Contains(chosen, t) {
				chosen = append(chosen, t)
			}
		}
		for _, t := range chosen {
			g.AddEdge(v, t, 1)
			endpoints = append(endpoints, v, t)
		}
	}
	return g
}

// ForestFire grows a directed graph with the forest-fire model
// (forward/backward burning probabilities p, r), which produces the
// densification power law E(t) ∝ N(t)^a with a > 1. Snapshots records
// (nodes, edges) after every snapshotEvery insertions.
type FireSnapshot struct {
	Nodes, Edges int
}

// ForestFire returns the grown graph plus densification snapshots.
func ForestFire(rng *stats.RNG, n int, p, r float64, snapshotEvery int) (*graph.Graph, []FireSnapshot) {
	g := graph.New(n, true)
	var snaps []FireSnapshot
	edges := 0
	for v := 1; v < n; v++ {
		// Each new node picks an ambassador and burns outward.
		amb := rng.Intn(v)
		visited := map[int]bool{v: true}
		frontier := []int{amb}
		g.AddEdge(v, amb, 1)
		edges++
		visited[amb] = true
		for len(frontier) > 0 {
			u := frontier[0]
			frontier = frontier[1:]
			// geometric number of forward links
			burn := geometric(rng, p)
			cnt := 0
			for _, e := range g.Neighbors(u) {
				if cnt >= burn {
					break
				}
				if !visited[e.To] {
					visited[e.To] = true
					g.AddEdge(v, e.To, 1)
					edges++
					frontier = append(frontier, e.To)
					cnt++
				}
			}
			// backward burning along in-links at rate r·p
			if r > 0 {
				backBurn := geometric(rng, p*r)
				cnt = 0
				for w := 0; w < v && cnt < backBurn; w++ {
					if visited[w] || !g.HasEdge(w, u) {
						continue
					}
					visited[w] = true
					g.AddEdge(v, w, 1)
					edges++
					frontier = append(frontier, w)
					cnt++
				}
			}
		}
		if snapshotEvery > 0 && (v+1)%snapshotEvery == 0 {
			snaps = append(snaps, FireSnapshot{Nodes: v + 1, Edges: edges})
		}
	}
	return g, snaps
}

func geometric(rng *stats.RNG, p float64) int {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1 << 20
	}
	k := 0
	for rng.Float64() < p {
		k++
		if k > 1000 {
			break
		}
	}
	return k
}

// PlantedPartition builds k communities of size each; within-community
// pairs are edges with probability pin, cross pairs with pout. Returns
// the graph and ground-truth community labels.
func PlantedPartition(rng *stats.RNG, k, size int, pin, pout float64) (*graph.Graph, []int) {
	n := k * size
	g := graph.New(n, false)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i / size
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := pout
			if labels[i] == labels[j] {
				p = pin
			}
			if rng.Float64() < p {
				g.AddEdge(i, j, 1)
			}
		}
	}
	return g, labels
}

// BiTypedConfig parameterizes the RankClus synthetic bi-typed network
// following the EDBT'09 accuracy study: K clusters; each cluster k has
// Nx[k] target objects (conferences) and Ny[k] attribute objects
// (authors); P[k] links are drawn inside cluster k with Zipf-skewed
// endpoints; and a fraction Cross of every object's links leak to other
// clusters, controlling separability.
type BiTypedConfig struct {
	K     int
	Nx    []int   // per-cluster target-type counts
	Ny    []int   // per-cluster attribute-type counts
	Links []int   // per-cluster link counts
	Cross float64 // probability a link's attribute endpoint leaks to another cluster
	Skew  float64 // Zipf exponent for endpoint popularity (e.g. 0.95)
}

// BiTypedResult is a planted bi-typed network plus ground truth.
type BiTypedResult struct {
	Net    *hin.Network
	X, Y   hin.Type
	TruthX []int // cluster of each target object
	TruthY []int // dominant cluster of each attribute object
}

// BiTyped generates the planted network. Target type "conf", attribute
// type "author" (names are cosmetic; RankClus sees only the structure).
func BiTyped(rng *stats.RNG, cfg BiTypedConfig) *BiTypedResult {
	if cfg.K != len(cfg.Nx) || cfg.K != len(cfg.Ny) || cfg.K != len(cfg.Links) {
		panic("netgen: BiTyped config length mismatch")
	}
	n := hin.NewNetwork()
	const X, Y = hin.Type("conf"), hin.Type("author")
	var truthX, truthY []int
	xBase := make([]int, cfg.K)
	yBase := make([]int, cfg.K)
	for k := 0; k < cfg.K; k++ {
		xBase[k] = n.Count(X)
		for i := 0; i < cfg.Nx[k]; i++ {
			n.AddObject(X, fmt.Sprintf("conf-k%d-%d", k, i))
			truthX = append(truthX, k)
		}
	}
	for k := 0; k < cfg.K; k++ {
		yBase[k] = n.Count(Y)
		for i := 0; i < cfg.Ny[k]; i++ {
			n.AddObject(Y, fmt.Sprintf("author-k%d-%d", k, i))
			truthY = append(truthY, k)
		}
	}
	for k := 0; k < cfg.K; k++ {
		zx := stats.NewZipf(rng, cfg.Nx[k], cfg.Skew)
		zy := stats.NewZipf(rng, cfg.Ny[k], cfg.Skew)
		for l := 0; l < cfg.Links[k]; l++ {
			x := xBase[k] + zx.Draw()
			kk := k
			if cfg.K > 1 && rng.Float64() < cfg.Cross {
				kk = rng.Intn(cfg.K - 1)
				if kk >= k {
					kk++
				}
			}
			var y int
			if kk == k {
				y = yBase[k] + zy.Draw()
			} else {
				y = yBase[kk] + rng.Intn(cfg.Ny[kk])
			}
			n.AddLink(X, x, Y, y, 1)
		}
	}
	return &BiTypedResult{Net: n, X: X, Y: Y, TruthX: truthX, TruthY: truthY}
}

// MediumBiTyped returns the "medium separation, medium density"
// configuration of the RankClus study: 3 clusters, 10/15/15 conferences,
// 500 authors each, 1000/1500/2000 links, 20% cross links.
func MediumBiTyped() BiTypedConfig {
	return BiTypedConfig{
		K:     3,
		Nx:    []int{10, 15, 15},
		Ny:    []int{500, 500, 500},
		Links: []int{1000, 1500, 2000},
		Cross: 0.20,
		Skew:  0.95,
	}
}
