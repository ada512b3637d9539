package netgen

import (
	"slices"
	"testing"

	"hinet/internal/stats"
)

func TestErdosRenyiDensity(t *testing.T) {
	rng := stats.NewRNG(1)
	g := ErdosRenyi(rng, 200, 0.1)
	maxEdges := 200 * 199 / 2
	got := float64(g.M()) / float64(maxEdges)
	if got < 0.08 || got > 0.12 {
		t.Errorf("ER density = %.4f, want ≈0.1", got)
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := ErdosRenyi(stats.NewRNG(7), 50, 0.2)
	b := ErdosRenyi(stats.NewRNG(7), 50, 0.2)
	if a.M() != b.M() {
		t.Error("same-seed ER graphs differ")
	}
}

func TestWattsStrogatzDegreePreserved(t *testing.T) {
	rng := stats.NewRNG(2)
	g := WattsStrogatz(rng, 100, 4, 0.1)
	// rewiring preserves edge count: n*k/2
	if g.M() != 200 {
		t.Errorf("WS edges = %d, want 200", g.M())
	}
}

func TestWattsStrogatzValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd k should panic")
		}
	}()
	WattsStrogatz(stats.NewRNG(1), 10, 3, 0.1)
}

func TestBarabasiAlbertHubEmergence(t *testing.T) {
	rng := stats.NewRNG(3)
	g := BarabasiAlbert(rng, 2000, 3)
	maxDeg, sumDeg := 0, 0
	for v := 0; v < g.N(); v++ {
		d := g.Degree(v)
		sumDeg += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(sumDeg) / float64(g.N())
	if maxDeg < int(10*avg) {
		t.Errorf("BA max degree %d not hub-like vs avg %.1f", maxDeg, avg)
	}
	// each new node adds m edges
	wantEdges := 3*2 + (2000-4)*3 // initial K4 (m+1 clique, m=3 → 6 edges) + growth
	if g.M() != wantEdges {
		t.Errorf("BA edges = %d, want %d", g.M(), wantEdges)
	}
}

// TestBarabasiAlbertDeterministic: a seed fixes the graph. Each new
// node's targets are kept in the order they were drawn, so the endpoint
// list, and with it every later draw, is the same on every run.
func TestBarabasiAlbertDeterministic(t *testing.T) {
	a := BarabasiAlbert(stats.NewRNG(1), 3000, 3).Adjacency()
	b := BarabasiAlbert(stats.NewRNG(1), 3000, 3).Adjacency()
	for r := 0; r < a.Rows(); r++ {
		ac, av := a.RowEntries(r)
		bc, bv := b.RowEntries(r)
		if !slices.Equal(ac, bc) || !slices.Equal(av, bv) {
			t.Fatalf("same-seed BA graphs differ in row %d: %v against %v", r, ac, bc)
		}
	}
}

func TestForestFireDensifies(t *testing.T) {
	rng := stats.NewRNG(4)
	_, snaps := ForestFire(rng, 3000, 0.35, 0.3, 500)
	if len(snaps) < 3 {
		t.Fatalf("too few snapshots: %d", len(snaps))
	}
	// average degree must grow over time (densification)
	first := float64(snaps[0].Edges) / float64(snaps[0].Nodes)
	last := float64(snaps[len(snaps)-1].Edges) / float64(snaps[len(snaps)-1].Nodes)
	if last <= first {
		t.Errorf("no densification: avg degree %.3f → %.3f", first, last)
	}
}

func TestPlantedPartitionRecoverableStructure(t *testing.T) {
	rng := stats.NewRNG(5)
	g, labels := PlantedPartition(rng, 3, 40, 0.3, 0.01)
	if g.N() != 120 || len(labels) != 120 {
		t.Fatal("size wrong")
	}
	// within-community edges should dominate
	within, cross := 0, 0
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Neighbors(u) {
			if e.To < u {
				continue
			}
			if labels[u] == labels[e.To] {
				within++
			} else {
				cross++
			}
		}
	}
	if within <= 3*cross {
		t.Errorf("planted structure weak: within=%d cross=%d", within, cross)
	}
}

func TestBiTypedShape(t *testing.T) {
	rng := stats.NewRNG(6)
	res := BiTyped(rng, MediumBiTyped())
	if res.Net.Count(res.X) != 40 {
		t.Errorf("conf count = %d, want 40", res.Net.Count(res.X))
	}
	if res.Net.Count(res.Y) != 1500 {
		t.Errorf("author count = %d, want 1500", res.Net.Count(res.Y))
	}
	if len(res.TruthX) != 40 || len(res.TruthY) != 1500 {
		t.Error("truth sizes wrong")
	}
	w := res.Net.Relation(res.X, res.Y)
	if int(w.Sum()) != 4500 {
		t.Errorf("total link weight = %v, want 4500", w.Sum())
	}
}

func TestBiTypedClusterCoherence(t *testing.T) {
	rng := stats.NewRNG(7)
	res := BiTyped(rng, MediumBiTyped())
	w := res.Net.Relation(res.X, res.Y)
	// Most of each conference's link mass should stay in its own cluster.
	agree, total := 0.0, 0.0
	for x := 0; x < w.Rows(); x++ {
		kx := res.TruthX[x]
		w.Row(x, func(y int, v float64) {
			total += v
			if res.TruthY[y] == kx {
				agree += v
			}
		})
	}
	if agree/total < 0.7 {
		t.Errorf("in-cluster link mass = %.2f, want > 0.7", agree/total)
	}
}

func TestBiTypedConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched config should panic")
		}
	}()
	BiTyped(stats.NewRNG(1), BiTypedConfig{K: 2, Nx: []int{1}, Ny: []int{1, 1}, Links: []int{1, 1}})
}
