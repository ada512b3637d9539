package metapath

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// recount sums what the entries in the map cost, from scratch, plus
// what Charge counted: what Stats.Bytes must read.
func recount(e *Engine) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.charged
	for k, ent := range e.entries {
		select {
		case <-ent.ready:
			if ent.m != nil {
				n += entryBytes(k, ent)
			}
		default: // in flight: charged when kept
		}
	}
	return n
}

// TestAccountMatchesRecount: after a build, an Invalidate, a patched
// refresh, a cancelled build, a CloneFor and a Reset, the byte account
// equals a recount of what the engine holds.
func TestAccountMatchesRecount(t *testing.T) {
	s := staleSource()
	e := New(s)
	ctx := context.Background()
	check := func(label string, e *Engine) {
		t.Helper()
		if got, want := e.Stats().Bytes, recount(e); got != want {
			t.Fatalf("%s: account %d, recount %d", label, got, want)
		}
	}
	if _, err := e.CommuteCtx(ctx, staleAPVPA); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.FactorCtx(ctx, staleAPVPA); err != nil {
		t.Fatal(err)
	}
	check("build", e)
	if e.Stats().Bytes == 0 {
		t.Fatal("a built product costs nothing")
	}
	if !e.Charge(staleAPVPA, 100) {
		t.Fatal("Charge refused 100 bytes beside a held factor")
	}
	check("charge", e)
	editPV(e, s, 1, 3)
	check("invalidate", e)
	p0 := e.Stats().Patches
	if _, err := e.CommuteCtx(ctx, staleAPVPA); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Patches == p0 {
		t.Fatal("the refresh did not take the patch route")
	}
	check("patched refresh", e)
	editPV(e, s, 2, 4)
	cctx, cancel := context.WithCancel(ctx)
	s.setHook(func(a, b string) { cancel() })
	if _, err := e.CommuteCtx(cctx, []string{"V", "P", "A", "P", "V"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: err %v", err)
	}
	s.setHook(nil)
	check("cancelled build", e)
	c := e.CloneFor(s, 3)
	check("clone", c)
	check("after clone", e)
	e.Reset()
	check("reset", e)
	if got := e.Stats().Bytes; got != e.charged {
		t.Fatalf("reset left %d bytes beside the %d charged", got, e.charged)
	}
}

// TestRefusedProductRunsNoKernel: on the factor route a product whose
// size bound exceeds the budget is refused before it is multiplied —
// the product and Gram counters do not move — while CommuteCtx answers
// the same path without keeping what does not fit.
func TestRefusedProductRunsNoKernel(t *testing.T) {
	s := staleSource()
	e := New(s)
	ctx := context.Background()
	long := []string{"A", "P", "A", "P", "A", "P", "A", "P", "A", "P", "A"}
	// Make the budget one byte short of the half's first product.
	limit := e.limit()
	if _, _, err := e.FactorCtx(ctx, long); err != nil {
		t.Fatalf("under a %d-byte budget: %v", limit, err)
	}
	e.Reset()
	ap := s.Relation("A", "P")
	e.mu.Lock()
	e.budget = matrixBytes(int64(ap.Rows()), productBound(ap, s.Relation("P", "A"))) - 1
	e.mu.Unlock()
	before := e.Stats()
	_, _, err := e.FactorCtx(ctx, long)
	if !errors.Is(err, errOverBudget) || !strings.Contains(err.Error(), "bytes") {
		t.Fatalf("FactorCtx over budget: err %v, want a refusal naming the bound", err)
	}
	after := e.Stats()
	if after.Products != before.Products || after.Grams != before.Grams {
		t.Fatalf("a refused path ran kernels: products %d → %d, grams %d → %d", before.Products, after.Products, before.Grams, after.Grams)
	}
	m, err := e.CommuteCtx(ctx, long)
	if err != nil || m == nil {
		t.Fatalf("CommuteCtx refused: %v", err)
	}
	sameBits(t, "commute past budget", m, coldCommute(t, s, long))
	if b := e.Stats().Bytes; b > e.budget || b != recount(e) {
		t.Fatalf("account %d, recount %d, budget %d", b, recount(e), e.budget)
	}
}

// TestBoundsBoundTheProduct: the size bounds the factor route refuses
// by are upper bounds on the true nnz.
func TestBoundsBoundTheProduct(t *testing.T) {
	s := staleSource()
	ap, pa, pv := s.Relation("A", "P"), s.Relation("P", "A"), s.Relation("P", "V")
	for _, c := range []struct {
		name  string
		bound int64
		path  []string
	}{
		{"A-P · P-A", productBound(ap, pa), []string{"A", "P", "A"}},
		{"P-A · A-P", productBound(pa, ap), []string{"P", "A", "P"}},
		{"A-P · P-V", productBound(ap, pv), []string{"A", "P", "V"}},
	} {
		m := coldCommute(t, s, c.path)
		if int64(m.NNZ()) > c.bound {
			t.Errorf("%s: nnz %d over its bound %d", c.name, m.NNZ(), c.bound)
		}
	}
}
