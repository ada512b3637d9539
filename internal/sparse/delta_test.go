package sparse

import (
	"math/rand"
	"reflect"
	"testing"
)

// rebuildWith reproduces the from-scratch result ApplyDelta must match:
// every stored entry of m as a coordinate, followed by the delta.
func rebuildWith(m *Matrix, delta []Coord) *Matrix {
	var coords []Coord
	for r := 0; r < m.Rows(); r++ {
		m.Row(r, func(c int, v float64) {
			coords = append(coords, Coord{Row: r, Col: c, Val: v})
		})
	}
	coords = append(coords, delta...)
	return NewFromCoords(m.Rows(), m.Cols(), coords)
}

func requireSame(t *testing.T, got, want *Matrix) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("dims: got %dx%d want %dx%d", got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	if !reflect.DeepEqual(got.rowPtr, want.rowPtr) {
		t.Fatalf("rowPtr mismatch:\ngot  %v\nwant %v", got.rowPtr, want.rowPtr)
	}
	if !reflect.DeepEqual(got.colIdx, want.colIdx) {
		t.Fatalf("colIdx mismatch:\ngot  %v\nwant %v", got.colIdx, want.colIdx)
	}
	if !reflect.DeepEqual(got.vals, want.vals) {
		t.Fatalf("vals mismatch:\ngot  %v\nwant %v", got.vals, want.vals)
	}
}

func TestApplyDeltaEmptyReturnsReceiver(t *testing.T) {
	m := NewFromCoords(3, 3, []Coord{{0, 0, 1}, {2, 1, 1}})
	if got := m.ApplyDelta(nil); got != m {
		t.Fatal("empty delta should return the receiver unchanged")
	}
}

func TestApplyDeltaInsertUpdateRemove(t *testing.T) {
	m := NewFromCoords(4, 5, []Coord{
		{0, 1, 1}, {0, 3, 2},
		{1, 0, 1},
		{3, 4, 5},
	})
	delta := []Coord{
		{0, 2, 7},  // insert between stored columns
		{0, 3, -2}, // cancel an entry to zero (drop)
		{1, 0, 3},  // patch a value
		{2, 2, 4},  // insert into an empty row
		{3, 0, 1},  // insert before stored columns
	}
	requireSame(t, m.ApplyDelta(delta), rebuildWith(m, delta))
	// Receiver untouched.
	requireSame(t, m, rebuildWith(m, nil))
}

func TestApplyDeltaValueOnlySharesStructure(t *testing.T) {
	m := NewFromCoords(3, 3, []Coord{{0, 0, 2}, {1, 1, 3}, {2, 0, 4}})
	n := m.ApplyDelta([]Coord{{1, 1, 5}})
	requireSame(t, n, rebuildWith(m, []Coord{{1, 1, 5}}))
	if &n.rowPtr[0] != &m.rowPtr[0] || &n.colIdx[0] != &m.colIdx[0] {
		t.Fatal("value-only delta should alias rowPtr/colIdx")
	}
	if &n.vals[0] == &m.vals[0] {
		t.Fatal("value array must be fresh")
	}
}

func TestApplyDeltaDuplicatesSumInOrder(t *testing.T) {
	m := NewFromCoords(2, 2, []Coord{{0, 0, 1}})
	delta := []Coord{{0, 1, 2}, {0, 1, 3}, {0, 0, -1}, {1, 1, 4}, {1, 1, -4}}
	requireSame(t, m.ApplyDelta(delta), rebuildWith(m, delta))
}

func TestApplyDeltaUnitTracking(t *testing.T) {
	m := NewFromCoords(2, 3, []Coord{{0, 0, 1}, {1, 2, 1}})
	if !m.unit {
		t.Fatal("base should be unit")
	}
	if n := m.ApplyDelta([]Coord{{0, 1, 1}}); !n.unit {
		t.Fatal("all-ones delta result should stay unit")
	}
	if n := m.ApplyDelta([]Coord{{0, 1, 2}}); n.unit {
		t.Fatal("non-one insert must clear unit")
	}
}

func TestApplyDeltaOutOfRangePanics(t *testing.T) {
	m := NewFromCoords(2, 2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range delta")
		}
	}()
	m.ApplyDelta([]Coord{{2, 0, 1}})
}

// TestApplyDeltaRandomizedEquivalence drives random delta batches
// (integer weights, so all sums are exact) through chains of
// ApplyDelta calls and checks each stage bitwise against a
// from-scratch rebuild.
func TestApplyDeltaRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(40)
		var coords []Coord
		for i := 0; i < rng.Intn(150); i++ {
			coords = append(coords, Coord{
				Row: rng.Intn(rows), Col: rng.Intn(cols),
				Val: float64(rng.Intn(9) - 4),
			})
		}
		m := NewFromCoords(rows, cols, coords)
		all := append([]Coord(nil), coords...)
		for batch := 0; batch < 4; batch++ {
			var delta []Coord
			for i := 0; i < rng.Intn(30); i++ {
				c := Coord{Row: rng.Intn(rows), Col: rng.Intn(cols), Val: float64(rng.Intn(9) - 4)}
				if len(all) > 0 && rng.Intn(2) == 0 {
					// Bias toward touching existing entries, including
					// exact cancellation.
					e := all[rng.Intn(len(all))]
					c.Row, c.Col = e.Row, e.Col
					if rng.Intn(3) == 0 {
						c.Val = -m.At(e.Row, e.Col)
					}
				}
				delta = append(delta, c)
			}
			next := m.ApplyDelta(delta)
			all = append(all, delta...)
			requireSame(t, next, NewFromCoords(rows, cols, all))
			m = next
		}
	}
}

// TestCoalesceDeltaOrderingsAgree holds the two ways coalesceDelta groups
// a batch by row — a counting pass over all rows, a stable sort of a batch
// far smaller than the matrix — to one answer: rows, extents, column
// order and duplicates summed in input order (the values make a reordered
// sum show in the bits), with repeated and cancelling coordinates; and
// ApplyDelta to one matrix, on batches either side of the crossover,
// whether it has few rows (counted) or the same entries and many (sorted).
func TestCoalesceDeltaOrderingsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const rows, cols = 32, 6
	vals := []float64{1e16, -1e16, 1, 0.1, 0.7, -0.3}
	short := NewFromCoords(rows, cols, []Coord{{0, 0, 1}, {5, 2, 0.3}, {rows - 1, 1, 2}})
	tall := short.Grow(rows*countingShare, cols) // sorts a batch under rows entries
	for trial := 0; trial < 300; trial++ {
		var delta []Coord
		for i, n := 0, 1+rng.Intn(2*rows); i < n; i++ {
			c := Coord{Row: rng.Intn(rows), Col: rng.Intn(cols), Val: vals[rng.Intn(len(vals))]}
			if i > 0 && rng.Intn(3) == 0 { // repeat an earlier coordinate, half the time cancelling it
				prev := delta[rng.Intn(i)]
				c.Row, c.Col = prev.Row, prev.Col
				if rng.Intn(2) == 0 {
					c.Val = -prev.Val
				}
			}
			delta = append(delta, c)
		}
		cr, cs, cc, cv := coalesceDelta(rows, delta) // rows/countingShare = 1 ≤ len: counted
		sr, ss, sc, sv := coalesceDelta(countingShare*(len(delta)+1), delta)
		if !reflect.DeepEqual(cr, sr) || !reflect.DeepEqual(cs, ss) || !reflect.DeepEqual(cc, sc) || !reflect.DeepEqual(cv, sv) {
			t.Fatalf("trial %d:\ncounted %v %v %v %v\nsorted  %v %v %v %v", trial, cr, cs, cc, cv, sr, ss, sc, sv)
		}
		requireSame(t, tall.ApplyDelta(delta), short.ApplyDelta(delta).Grow(tall.Rows(), cols))
	}
}

func TestGrow(t *testing.T) {
	m := NewFromCoords(2, 3, []Coord{{0, 1, 2}, {1, 2, 3}})
	n := m.Grow(4, 5)
	if n.Rows() != 4 || n.Cols() != 5 {
		t.Fatalf("got %dx%d", n.Rows(), n.Cols())
	}
	// Entries preserved; new rows/cols empty.
	requireSame(t, n, rebuildWith(m, nil).Grow(4, 5))
	if n.At(0, 1) != 2 || n.At(1, 2) != 3 || n.At(3, 4) != 0 {
		t.Fatal("entries not preserved by Grow")
	}
	if n.NNZ() != m.NNZ() {
		t.Fatal("Grow must not change nnz")
	}
	// Same dims returns the receiver; column-only growth shares rowPtr.
	if m.Grow(2, 3) != m {
		t.Fatal("no-op Grow should return the receiver")
	}
	if c := m.Grow(2, 9); &c.rowPtr[0] != &m.rowPtr[0] {
		t.Fatal("column-only Grow should share the row pointer")
	}
	// Grow then delta into the new region matches a fresh build.
	d := []Coord{{3, 4, 1}, {0, 4, 1}}
	requireSame(t, n.ApplyDelta(d), rebuildWith(n, d))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shrink")
		}
	}()
	m.Grow(1, 3)
}

// TestGrowEquivalentToRebuild checks the HIN usage pattern: growing a
// cached matrix produces exactly what a from-scratch build at the new
// dimensions would.
func TestGrowEquivalentToRebuild(t *testing.T) {
	coords := []Coord{{0, 0, 1}, {2, 1, 2}, {2, 2, 1}}
	m := NewFromCoords(3, 3, coords)
	requireSame(t, m.Grow(5, 4), NewFromCoords(5, 4, coords))
}
