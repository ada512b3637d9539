package sparse

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestParRangeCtxEquivalence: with a live (or non-cancelable) context,
// ParRangeCtx covers exactly the same range as ParRange, serial and
// parallel.
func TestParRangeCtxEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withParallel(t, workers, func() {
			const n = 1000
			var covered [n]atomic.Int32
			err := ParRangeCtx(context.Background(), n, n*1000, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					covered[i].Add(1)
				}
			})
			if err != nil {
				t.Fatalf("workers=%d: err = %v", workers, err)
			}
			for i := range covered {
				if got := covered[i].Load(); got != 1 {
					t.Fatalf("workers=%d: index %d covered %d times", workers, i, got)
				}
			}
		})
	}
}

// TestParRangeCtxPreCancelled: an already-dead context runs nothing.
func TestParRangeCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := ParRangeCtx(ctx, 100, 1000000, func(lo, hi int) { ran = true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("body ran despite a pre-cancelled context")
	}
}

// TestParRangeCtxMidCancel: cancelling from inside the body stops the
// range early and surfaces ctx.Err().
func TestParRangeCtxMidCancel(t *testing.T) {
	withParallel(t, 1, func() { // serial path polls between blocks
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int32
		err := ParRangeCtx(ctx, 10000, 10000*1000, func(lo, hi int) {
			if calls.Add(1) == 1 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if got := calls.Load(); got >= 32 {
			t.Errorf("%d blocks ran after cancellation; polling is not cutting the range short", got)
		}
	})
}

// TestMulCtxMatchesMul: a product that polls a live context is the
// product computed with nothing to poll.
func TestMulCtxMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomCSR(rng, 120, 90, 6)
	b := randomCSR(rng, 90, 70, 5)
	want := mulOf(m, b)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := m.MulCtx(ctx, b)
	if err != nil {
		t.Fatalf("MulCtx: %v", err)
	}
	sameMatrix(t, "MulCtx", want, got)

	g, err := m.GramCtx(context.Background())
	if err != nil {
		t.Fatalf("GramCtx: %v", err)
	}
	sameMatrix(t, "GramCtx", gramOf(m), g)
}

// TestMulCtxCancelled: a dead context aborts the product with its error
// and never returns a partial matrix.
func TestMulCtxCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randomCSR(rng, 200, 200, 8)
	b := randomCSR(rng, 200, 200, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out, err := m.MulCtx(ctx, b); !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("MulCtx = (%v, %v), want (nil, context.Canceled)", out, err)
	}
	if out, err := m.GramCtx(ctx); !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("GramCtx = (%v, %v), want (nil, context.Canceled)", out, err)
	}
}
