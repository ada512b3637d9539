package sparse

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// rebuildAt is the from-scratch matrix Extend must match: every stored
// entry of m and then the delta, at rows×cols.
func rebuildAt(m *Matrix, rows, cols int, delta []Coord) *Matrix {
	var coords []Coord
	for r := 0; r < m.rows; r++ {
		m.Row(r, func(c int, v float64) { coords = append(coords, Coord{Row: r, Col: c, Val: v}) })
	}
	return NewFromCoords(rows, cols, append(coords, delta...))
}

// snapshot copies m's rows out of its arrays.
func snapshot(m *Matrix) *Matrix {
	return &Matrix{rows: m.rows, cols: m.cols, unit: m.unit,
		rowPtr: slices.Clone(m.rowPtr), colIdx: slices.Clone(m.colIdx), vals: slices.Clone(m.vals)}
}

// sameArrays reports whether a and b index into one column array and
// one value array.
func sameArrays(a, b *Matrix) bool { return shares(a.colIdx, b.colIdx) && shares(a.vals, b.vals) }

// appendDelta returns a delta adding add rows past m's last, each with
// up to two entries; now and then a pair cancels and the row stays empty.
func appendDelta(rng *rand.Rand, m *Matrix, add int) []Coord {
	var d []Coord
	for r := m.rows; r < m.rows+add; r++ {
		for j := 0; j < 2; j++ {
			c := rng.Intn(m.cols)
			d = append(d, Coord{Row: r, Col: c, Val: []float64{1, 2, 0.5}[rng.Intn(3)]})
			if rng.Intn(8) == 0 {
				d = append(d, Coord{Row: r, Col: c, Val: -d[len(d)-1].Val})
			}
		}
	}
	return d
}

// fits reports whether m's arrays have room for rows rows and nnz
// entries.
func fits(m *Matrix, rows, nnz int) bool {
	return cap(m.rowPtr) > rows && cap(m.colIdx) >= nnz && cap(m.vals) >= nnz
}

// TestExtendAppendsInPlace: a chain of row-appending merges shares one
// backing array until its headroom runs out; every matrix of the chain
// reads its own rows unchanged; a second merge from a parent, an alias
// that does not hold the claim (Grow, a value-only merge, Scale) and two
// siblings merged at once all copy instead of writing past another's end.
func TestExtendAppendsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	m := randomCSR(rng, 400, 60, 4)
	chain := []*Matrix{m}
	snaps := []*Matrix{snapshot(m)}
	inPlace, copies := 0, 0
	for i := 0; i < 50; i++ {
		add := 1 + rng.Intn(2)
		d := appendDelta(rng, m, add)
		n := m.Extend(m.rows+add, m.cols, d)
		identical(t, "chained append", n, rebuildAt(m, m.rows+add, m.cols, d))
		if want := i > 0 && fits(m, n.rows, n.NNZ()); sameArrays(m, n) != want {
			t.Fatalf("merge %d: in place %v, want %v (the first copies; then in place while there is room)", i, !want, want)
		}
		if sameArrays(m, n) {
			inPlace++
		} else {
			copies++
		}
		m = n
		chain, snaps = append(chain, n), append(snaps, snapshot(n))
	}
	if inPlace < 40 || copies > 3 {
		t.Fatalf("%d merges in place, %d copies: the headroom does not hold", inPlace, copies)
	}
	for i, c := range chain {
		identical(t, "earlier matrix", c, snaps[i])
	}

	// A sibling of an in-place successor copies, and the successor keeps
	// its rows.
	k := len(chain) - 2
	for !sameArrays(chain[k], chain[k+1]) {
		k--
	}
	parent := chain[k]
	d := appendDelta(rng, parent, 2)
	sib := parent.Extend(parent.rows+2, parent.cols+3, d)
	identical(t, "sibling", sib, rebuildAt(parent, parent.rows+2, parent.cols+3, d))
	if sameArrays(sib, parent) {
		t.Fatal("a second merge from one parent appended in place")
	}

	// Aliases that do not hold the claim copy when they append.
	last := chain[len(chain)-1]
	r := 0
	for last.RowNNZ(r) == 0 {
		r++
	}
	aliases := map[string]*Matrix{
		"value-only": last.ApplyDelta([]Coord{{Row: r, Col: int(last.colIdx[last.rowPtr[r]]), Val: 1}}),
		"Scale":      last.scale(2),
		"Grow":       parent.Grow(parent.rows+3, parent.cols),
	}
	for name, a := range aliases {
		if !shares(a.colIdx, last.colIdx) {
			t.Fatalf("%s does not alias the chain's arrays", name)
		}
		d := appendDelta(rng, a, 1)
		n := a.Extend(a.rows+1, a.cols, d)
		identical(t, name+" then append", n, rebuildAt(a, a.rows+1, a.cols, d))
		if shares(n.colIdx, last.colIdx) {
			t.Fatalf("%s: an alias without the claim appended in place", name)
		}
	}
	for i, c := range chain {
		identical(t, "earlier matrix after the aliases", c, snaps[i])
	}
	// The chain's head still holds the claim: nothing took it or wrote
	// past its end.
	if !fits(last, last.rows+1, last.NNZ()+2) {
		t.Fatal("no room left at the chain's head: pick a seed that leaves some")
	}
	d = appendDelta(rng, last, 1)
	if n := last.Extend(last.rows+1, last.cols, d); !sameArrays(n, last) {
		t.Fatal("the chain's head lost its claim to an alias")
	}

	// Two siblings of one claim holder merged at once: one appends in
	// place, the other copies, and both read as rebuilt.
	for trial := 0; trial < 20; trial++ {
		p := randomCSR(rng, 200, 40, 3).Extend(201, 40, nil)
		p = p.Extend(202, 40, appendDelta(rng, p, 1)) // holds a claim, with room
		pSnap := snapshot(p)
		deltas := [2][]Coord{appendDelta(rng, p, 1), appendDelta(rng, p, 2)}
		var out [2]*Matrix
		var wg sync.WaitGroup
		for g := range out {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[g] = p.Extend(p.rows+g+1, p.cols, deltas[g])
			}()
		}
		wg.Wait()
		shared := 0
		for g, n := range out {
			identical(t, "concurrent sibling", n, rebuildAt(p, p.rows+g+1, p.cols, deltas[g]))
			if sameArrays(n, p) {
				shared++
			}
		}
		if shared != 1 {
			t.Fatalf("trial %d: %d of two concurrent siblings appended in place, want 1", trial, shared)
		}
		identical(t, "parent of concurrent siblings", p, pSnap)
	}
}
