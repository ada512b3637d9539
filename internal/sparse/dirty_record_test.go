package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomMergeDelta returns a delta for m at rows×cols mixing what a
// merge can do to a row: inserts, sums that cancel an entry to zero,
// value edits, edits too small to move a value's bits, −0 onto stored
// and absent entries, duplicates that cancel each other, and entries in
// rows and columns past m's. With valueOnly it only edits stored values.
func randomMergeDelta(rng *rand.Rand, m *Matrix, rows, cols int, valueOnly bool) []Coord {
	var d []Coord
	negZero := math.Copysign(0, -1)
	for k := 1 + rng.Intn(8); k > 0; k-- {
		r := rng.Intn(m.rows)
		idx, vals := m.RowEntries(r)
		if valueOnly || len(idx) > 0 && rng.Intn(2) == 0 {
			if len(idx) == 0 {
				continue
			}
			i := rng.Intn(len(idx))
			c := int(idx[i])
			switch rng.Intn(4) {
			case 0:
				d = append(d, Coord{Row: r, Col: c, Val: 0.25})
			case 1:
				d = append(d, Coord{Row: r, Col: c, Val: negZero})
			case 2:
				d = append(d, Coord{Row: r, Col: c, Val: math.Abs(vals[i]) * 1e-20}) // below half an ulp
			default:
				if !valueOnly {
					d = append(d, Coord{Row: r, Col: c, Val: -vals[i]}) // cancels to zero
				}
			}
			continue
		}
		c := rng.Intn(cols)
		switch rng.Intn(3) {
		case 0:
			d = append(d, Coord{Row: r, Col: c, Val: 1})
		case 1:
			d = append(d, Coord{Row: r, Col: c, Val: negZero})
		default:
			d = append(d, Coord{Row: r, Col: c, Val: 2}, Coord{Row: r, Col: c, Val: -2})
		}
	}
	if !valueOnly {
		for r := m.rows; r < rows; r++ {
			if rng.Intn(2) == 0 {
				d = append(d, Coord{Row: r, Col: rng.Intn(cols), Val: 1})
			}
		}
	}
	return d
}

// TestDirtyRowsRecordedByMerge: the rows a merge records are exactly the
// rows a scan finds changed, over random merges of every kind, and a
// matrix more than one merge from old, or not merged from it at all,
// is compared row by row.
func TestDirtyRowsRecordedByMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	recorded := 0
	for trial := 0; trial < 300; trial++ {
		m := randomCSR(rng, 5+rng.Intn(40), 3+rng.Intn(20), 3)
		for step := 0; step < 4; step++ {
			rows, cols := m.rows, m.cols
			valueOnly := rng.Intn(4) == 0
			if !valueOnly && rng.Intn(2) == 0 {
				rows, cols = rows+rng.Intn(3), cols+rng.Intn(3)
			}
			n := m.Extend(rows, cols, randomMergeDelta(rng, m, rows, cols, valueOnly))
			if n == m {
				continue
			}
			if n.from != m.id {
				t.Fatalf("trial %d: a merge did not record its parent", trial)
			}
			if got, want := DirtyRows(m, n), scanDirty(m, n); !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("trial %d step %d: recorded %v, scan %v", trial, step, got, want)
			}
			if len(n.dirty) > 0 {
				recorded++
			}
			// Two merges away: the later record knows nothing of the
			// first merge's rows, so the answer is the scan's.
			two := n.Extend(n.rows, n.cols, randomMergeDelta(rng, n, n.rows, n.cols, false))
			if got, want := DirtyRows(m, two), scanDirty(m, two); !slices.Equal(got, want) {
				t.Fatalf("trial %d step %d: two merges away %v, scan %v", trial, step, got, want)
			}
			// Unrelated: the same rows, built afresh.
			fresh := NewFromDense(n.Dense())
			if got, want := DirtyRows(m, fresh), scanDirty(m, fresh); !slices.Equal(got, want) {
				t.Fatalf("trial %d step %d: unrelated matrix %v, scan %v", trial, step, got, want)
			}
			m = n
		}
	}
	if recorded < 100 {
		t.Fatalf("only %d merges recorded a changed row", recorded)
	}
}
