package sparse

import (
	"math/rand"
	"testing"
)

// randomMatrix builds a rows×cols matrix with the given fill density;
// integer values keep expected results exact.
func randomMatrix(rng *rand.Rand, rows, cols int, density float64, unit bool) *Matrix {
	var entries []Coord
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				v := 1.0
				if !unit {
					v = float64(1 + rng.Intn(5))
				}
				entries = append(entries, Coord{r, c, v})
			}
		}
	}
	return NewFromCoords(rows, cols, entries)
}

func matricesEqual(t *testing.T, want, got *Matrix, label string) {
	t.Helper()
	if want.Rows() != got.Rows() || want.Cols() != got.Cols() {
		t.Fatalf("%s: dims %dx%d vs %dx%d", label, want.Rows(), want.Cols(), got.Rows(), got.Cols())
	}
	for r := 0; r < want.Rows(); r++ {
		wd, gd := want.Dense()[r], got.Dense()[r]
		for c := range wd {
			if wd[c] != gd[c] {
				t.Fatalf("%s: entry (%d,%d) = %v, want %v (bitwise)", label, r, c, gd[c], wd[c])
			}
		}
	}
}

func TestColSliceMatchesColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		m := randomMatrix(rng, rows, cols, 0.2, trial%2 == 0)
		lo := rng.Intn(cols + 1)
		hi := lo + rng.Intn(cols-lo+1)
		s := m.ColSlice(lo, hi)
		if s.Rows() != rows || s.Cols() != hi-lo {
			t.Fatalf("ColSlice dims %dx%d, want %dx%d", s.Rows(), s.Cols(), rows, hi-lo)
		}
		d, sd := m.Dense(), s.Dense()
		for r := 0; r < rows; r++ {
			for c := lo; c < hi; c++ {
				if d[r][c] != sd[r][c-lo] {
					t.Fatalf("ColSlice(%d,%d) entry (%d,%d) = %v, want %v", lo, hi, r, c-lo, sd[r][c-lo], d[r][c])
				}
			}
		}
	}
}

func TestGramDiagonalMatchesGram(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(50), 1+rng.Intn(30)
		h := randomMatrix(rng, rows, cols, 0.25, trial%2 == 0)
		want := gramOf(h).Diagonal()
		got := h.GramDiagonal()
		if len(want) != len(got) {
			t.Fatalf("GramDiagonal length %d, want %d", len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("GramDiagonal[%d] = %v, want %v (bitwise)", i, got[i], want[i])
			}
		}
	}
}

func TestSliceBoundsPanic(t *testing.T) {
	m := NewFromDense([][]float64{{1, 0}, {0, 2}})
	for _, f := range []func(){
		func() { m.ColSlice(-1, 1) },
		func() { m.ColSlice(2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range slice did not panic")
				}
			}()
			f()
		}()
	}
}
