package sparse

import (
	"context"
	"math/rand"
	"slices"
	"testing"
)

// rowLoopPatch is PatchCtx as it was before it copied untouched rows in
// bulk: two passes over every row — size, then fill — each asking of
// each row whether the patch can reach it. It is the reference the bulk
// form is held to, serial (the row blocks never changed a bit).
func rowLoopPatch(m *Matrix, patch Patch) *Matrix {
	p := newPatcher(m, patch)
	reach := func(r int, idx []int32) (touched bool, cidx []int32, cvals []float64) {
		if p.cols == nil {
			return false, nil, nil
		}
		cidx, cvals = p.cols.RowEntries(r)
		if len(cidx) > 0 || len(idx) == 0 {
			return len(cidx) > 0, cidx, cvals
		}
		a, _ := slices.BinarySearch(p.PatchCols, int(idx[0]))
		return a < len(p.PatchCols) && p.PatchCols[a] <= int(idx[len(idx)-1]), cidx, cvals
	}
	out := &Matrix{rows: p.Rows, cols: p.Cols, rowPtr: make([]int, p.Rows+1)}
	same, d := true, 0
	for r := 0; r < p.Rows; r++ {
		idx, _ := m.rowOrNone(r)
		if d < len(p.Dirty) && p.Dirty[d] == r {
			blo, bhi := p.RowBlock.rowPtr[d], p.RowBlock.rowPtr[d+1]
			out.rowPtr[r+1] = bhi - blo
			same = same && slices.Equal(idx, p.RowBlock.colIdx[blo:bhi])
			d++
			continue
		}
		touched, cidx, _ := reach(r, idx)
		if !touched {
			out.rowPtr[r+1] = len(idx)
			continue
		}
		n, kept := p.spliced(idx, cidx)
		out.rowPtr[r+1] = n
		same = same && kept
	}
	for r := 0; r < p.Rows; r++ {
		out.rowPtr[r+1] += out.rowPtr[r]
	}
	out.vals = make([]float64, out.rowPtr[p.Rows])
	fillIdx := !same
	if same {
		out.colIdx = m.colIdx
		if p.Rows == m.rows {
			out.rowPtr = m.rowPtr
		}
	} else {
		out.colIdx = make([]int32, len(out.vals))
	}
	put := func(at int, idx []int32, vals []float64) {
		if fillIdx {
			copy(out.colIdx[at:], idx)
		}
		copy(out.vals[at:], vals)
	}
	d = 0
	for r := 0; r < p.Rows; r++ {
		at := out.rowPtr[r]
		if d < len(p.Dirty) && p.Dirty[d] == r {
			blo, bhi := p.RowBlock.rowPtr[d], p.RowBlock.rowPtr[d+1]
			put(at, p.RowBlock.colIdx[blo:bhi], p.RowBlock.vals[blo:bhi])
			d++
			continue
		}
		idx, vals := m.rowOrNone(r)
		touched, cidx, cvals := reach(r, idx)
		if !touched {
			put(at, idx, vals)
			continue
		}
		var oi []int32
		if fillIdx {
			oi = out.colIdx[at:]
		}
		p.splice(idx, vals, cidx, cvals, oi, out.vals[at:])
	}
	out.unit = allOnes(out.vals)
	out.sym = m.sym && patch.keepsSymmetry()
	return out
}

// shares reports whether two slices start at one array element.
func shares[T any](a, b []T) bool { return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0] }

// randomRowPatch returns a patch of m replacing a random set of rows —
// some past m's last when rows are added — each with m's own pattern
// under new values when keep is set, a random row otherwise.
func randomRowPatch(rng *rand.Rand, m *Matrix, addRows, addCols int, keep bool) Patch {
	p := Patch{Rows: m.rows + addRows, Cols: m.cols + addCols}
	var coords []Coord
	for r := 0; r < p.Rows; r++ {
		if rng.Intn(6) != 0 {
			continue
		}
		i := len(p.Dirty)
		p.Dirty = append(p.Dirty, r)
		if keep {
			idx, vals := m.rowOrNone(r)
			for k, c := range idx {
				coords = append(coords, Coord{Row: i, Col: int(c), Val: vals[k] * 2})
			}
			continue
		}
		for k := rng.Intn(5); k > 0; k-- {
			coords = append(coords, Coord{Row: i, Col: rng.Intn(p.Cols), Val: rng.NormFloat64()})
		}
	}
	p.RowBlock = NewFromCoords(len(p.Dirty), p.Cols, coords)
	return p
}

// randomColPatch returns p with a random set of patched columns added:
// ColBlock holds, in every row, either the row's own entries in those
// columns under new values (keep) or random ones.
func randomColPatch(rng *rand.Rand, m *Matrix, p Patch, keep bool) Patch {
	for c := 0; c < p.Cols; c++ {
		if rng.Intn(5) == 0 {
			p.PatchCols = append(p.PatchCols, c)
		}
	}
	var coords []Coord
	for r := 0; r < p.Rows; r++ {
		if keep {
			idx, vals := m.rowOrNone(r)
			for k, c := range idx {
				if j, ok := slices.BinarySearch(p.PatchCols, int(c)); ok {
					coords = append(coords, Coord{Row: r, Col: j, Val: vals[k] + 1})
				}
			}
			continue
		}
		if len(p.PatchCols) > 0 && rng.Intn(4) == 0 {
			coords = append(coords, Coord{Row: r, Col: rng.Intn(len(p.PatchCols)), Val: rng.NormFloat64()})
		}
	}
	p.ColBlock = NewFromCoords(p.Rows, len(p.PatchCols), coords)
	if len(p.PatchCols) == 0 {
		p.ColBlock = nil
	}
	return p
}

// TestPatchCtxMatchesRowLoop: over random row-only, Gram, column,
// added-row, pattern-keeping and empty patches, PatchCtx writes what
// the row-by-row reference does — rowPtr, colIdx, the bits of vals,
// unit and sym — and aliases the receiver's rowPtr and colIdx exactly
// when the reference does; serial and in forced-parallel row blocks.
func TestPatchCtxMatchesRowLoop(t *testing.T) {
	check := func(t *testing.T, label string, m *Matrix, p Patch) {
		t.Helper()
		want := rowLoopPatch(m, p)
		got, err := m.PatchCtx(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		identical(t, label, got, want)
		if got.sym != want.sym {
			t.Fatalf("%s: sym = %v, want %v", label, got.sym, want.sym)
		}
		if shares(got.colIdx, m.colIdx) != shares(want.colIdx, m.colIdx) || shares(got.rowPtr, m.rowPtr) != shares(want.rowPtr, m.rowPtr) {
			t.Fatalf("%s: aliases colIdx %v rowPtr %v, want %v %v", label, shares(got.colIdx, m.colIdx),
				shares(got.rowPtr, m.rowPtr), shares(want.colIdx, m.colIdx), shares(want.rowPtr, m.rowPtr))
		}
		if shares(got.vals, m.vals) {
			t.Fatalf("%s: the value array must be fresh", label)
		}
	}
	run := func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 10+rng.Intn(60), 5+rng.Intn(30)
		m := randomCSR(rng, rows, cols, 3)
		addRows, addCols := int(seed%3), int(seed%2)*2
		keep := seed%4 == 0

		check(t, "empty", m, Patch{Rows: m.rows, Cols: m.cols})
		check(t, "empty, grown", m, Patch{Rows: m.rows + addRows + 1, Cols: m.cols + addCols})
		rp := randomRowPatch(rng, m, addRows, addCols, keep)
		check(t, "row-only", m, rp)
		check(t, "rows and columns", m, randomColPatch(rng, m, rp, keep))
		check(t, "columns only", m, randomColPatch(rng, m, Patch{Rows: m.rows + addRows, Cols: m.cols + addCols}, keep))

		// The Gram patch the meta-path engine writes, on a symmetric base.
		h := randomCSR(rng, rows, cols, 2)
		cur := mutate(rng, h, 1+rng.Intn(3), addRows, addCols)
		if keep {
			cur = h.ApplyDelta([]Coord{{Row: 0, Col: 0, Val: 1}})
		}
		d := DirtyRows(h, cur)
		block := mulOf(cur.GatherRows(d), cur.Transpose())
		check(t, "gram", gramOf(h), Patch{Rows: cur.rows, Cols: cur.rows, Dirty: d, RowBlock: block, PatchCols: d, ColBlock: block.Transpose()})
	}
	for seed := int64(0); seed < 80; seed++ {
		run(t, seed)
		withParallel(t, 4, func() { run(t, seed) })
	}
}
