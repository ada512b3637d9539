package pathsim

import (
	"context"
	"errors"
	"testing"
)

// TestBatchTopKCtxMatchesBatchTopK: a live context is a no-op — the
// batch answers what the per-query kernel does.
func TestBatchTopKCtxMatchesBatchTopK(t *testing.T) {
	ix := NewIndex(toyNet(), apvpa)
	queries := []int{0, 1, 2, 3}
	want := make([][]Pair, len(queries))
	for i, x := range queries {
		want[i] = ix.TopK(x, 3)
	}
	got, err := ix.BatchTopKCtx(context.Background(), queries, 3)
	if err != nil {
		t.Fatalf("BatchTopKCtx: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("query %d: %d pairs, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("query %d pair %d: %+v, want %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestBatchTopKCtxCancelled: a dead context aborts the batch with its
// error and no partial results.
func TestBatchTopKCtxCancelled(t *testing.T) {
	ix := NewIndex(toyNet(), apvpa)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := ix.BatchTopKCtx(ctx, []int{0, 1, 2, 3}, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatalf("got partial results %v on cancellation", out)
	}
}

// TestNewIndexCtxCancelled: a dead context stops the commuting-matrix
// materialization behind an on-demand index build.
func TestNewIndexCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ix, err := NewIndexCtx(ctx, toyNet(), apvpa); !errors.Is(err, context.Canceled) || ix != nil {
		t.Fatalf("NewIndexCtx = (%v, %v), want (nil, context.Canceled)", ix, err)
	}
	// The failed build must not poison the network's engine cache.
	if ix, err := NewIndexCtx(context.Background(), toyNet(), apvpa); err != nil || ix == nil {
		t.Fatalf("retry NewIndexCtx = (%v, %v), want success", ix, err)
	}
}
