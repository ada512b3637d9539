// The byte budget. Everything a generation keeps for meta-paths is
// counted in one account: the engine's entries (stale patch bases
// included) and what a reader of a factor keeps beside it (Charge: the
// serving View's memo). The budget is a fixed multiple of the network's
// relation-matrix bytes. A completed product that does not fit is
// answered but not kept — a stale base is evicted first to make room —
// and on the factor route (FactorCtx) a product whose size bound
// exceeds the whole budget is refused before it is multiplied.

package metapath

import (
	"errors"
	"fmt"

	"hinet/internal/sparse"
)

// budgetPerRelationByte is the budget as a multiple of Source.RelationBytes.
// Readings of relation bytes (seed 1): 0.04 MiB for the serve tests'
// corpus, 0.29 MiB at 800 authors and 1.46 MiB at 4 000. A served
// engine holds ≈ 0.8× that at boot (the co-author graph and the default
// path's factor) and ≈ 2.7× once the mixed_rw workload's A-P-A and
// A-P-T-P-A are built. Eight keeps those with room, and refuses
// A-P-A-P-A-P-A's half at 800 authors and up (its factor alone is
// 10.1× relation bytes at 800 authors, 32.5× at 4 000).
const budgetPerRelationByte = 8

// minBudget is the floor under the budget: a network too small to
// measure (a test's, an example's) still keeps its handful of paths.
const minBudget = 64 << 10

// entryOverhead is what an entry costs beside its matrix, its key and
// its path: the entry itself and its map slot.
const entryOverhead = 128

// errOverBudget marks a product refused on the factor route.
var errOverBudget = errors.New("metapath: product over budget")

// matrixBytes is what a CSR matrix's arrays hold: a row pointer per row
// (plus one) and a column index and a value per entry.
func matrixBytes(rows, nnz int64) int64 { return 8*(rows+1) + 12*nnz }

// entryBytes is what the entry for key costs the account. A relation's
// matrix is the source's, so a one-relation entry costs only itself.
func entryBytes(key string, ent *entry) int64 {
	n := entryOverhead + int64(len(key)) + 16*int64(len(ent.path))
	if len(ent.path) > 2 {
		n += matrixBytes(int64(ent.m.Rows()), int64(ent.m.NNZ()))
	}
	return n
}

// limit returns the budget at the current epoch, deriving it from the
// source the first time it is needed there.
func (e *Engine) limit() int64 {
	e.mu.Lock()
	b := e.budget
	e.mu.Unlock()
	if b == 0 {
		b = max(minBudget, budgetPerRelationByte*e.src.RelationBytes())
		e.mu.Lock()
		e.budget = b
		e.mu.Unlock()
	}
	return b
}

// keep charges a completed entry still in the map at key, evicting
// stale bases while it does not fit; with none left it withdraws the
// entry: answered, not kept. Callers hold mu.
func (e *Engine) keep(key string, ent *entry, limit int64) {
	size := entryBytes(key, ent)
	for e.kept+e.charged+size > limit {
		if !e.evictStale() {
			delete(e.entries, key)
			return
		}
	}
	ent.size = size
	e.kept += size
}

// evictStale drops one stale patch base to make room, reporting whether
// there was one. Callers hold mu.
func (e *Engine) evictStale() bool {
	for k, ent := range e.entries {
		if ent.stale {
			delete(e.entries, k)
			e.kept -= ent.size
			return true
		}
	}
	return false
}

// put stores ent at key, keeping the account: an entry it displaces
// leaves it, and ent joins it with the size it was charged (0 while in
// flight). Callers hold mu.
func (e *Engine) put(key string, ent *entry) {
	if old := e.entries[key]; old != nil {
		e.kept -= old.size
	}
	e.entries[key] = ent
	e.kept += ent.size
}

// Charge counts n bytes a reader keeps beside path's factor — the
// serving View's memo of the path's index: its keys and its diagonal —
// against the budget, and reports whether it did. It counts nothing and
// reports false when they do not fit, or when the engine does not keep
// the factor itself: a reader holding a factor the account does not
// see would pin bytes past the budget.
func (e *Engine) Charge(path []string, n int64) bool {
	limit := e.limit()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !gramEligible(path) {
		return false
	}
	half := halfOf(path)
	for _, p := range [][]string{half, reverseOf(half)} {
		if ent := e.entries[join(p)]; ent == nil || ent.stale || ent.size == 0 {
			return false
		}
	}
	if e.kept+e.charged+n > limit {
		return false
	}
	e.charged += n
	return true
}

// fits refuses a product whose size bound, nnz entries at rows rows,
// exceeds the whole budget.
func (e *Engine) fits(path []string, rows, nnz int64) error {
	bound, limit := matrixBytes(rows, nnz), e.limit()
	if bound <= limit {
		return nil
	}
	return fmt.Errorf("%w: %s could take up to %d bytes (%.1f MiB), past this network's meta-path budget of %d bytes (%.1f MiB)",
		errOverBudget, join(path), bound, float64(bound)/(1<<20), limit, float64(limit)/(1<<20))
}

// productBound is an upper bound on nnz(a·b), exact in the sense that
// no product exceeds it: row r of a·b has at most Σ nnz(b[c,:]) over
// a's entries (r, c), and at most b.Cols() entries.
func productBound(a, b *sparse.Matrix) int64 {
	var total int64
	for r := 0; r < a.Rows(); r++ {
		cols, _ := a.RowEntries(r)
		var row int64
		for _, c := range cols {
			row += int64(b.RowNNZ(int(c)))
		}
		total += min(row, int64(b.Cols()))
	}
	return total
}
