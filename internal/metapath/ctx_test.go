package metapath

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// TestCommuteCtxMatchesCommute: a live context changes nothing about
// the result.
func TestCommuteCtxMatchesCommute(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	src := randomSource(rng)
	path := randomWalkPath(rng, src, 3)
	want, err := New(src).CommuteCtx(context.Background(), path)
	if err != nil {
		t.Fatalf("Commute: %v", err)
	}
	got, err := New(src).CommuteCtx(context.Background(), path)
	if err != nil {
		t.Fatalf("CommuteCtx: %v", err)
	}
	sameMatrix(t, "CommuteCtx", got, want)
}

// TestCommuteCtxCancelledNotPoisoned: a cancelled materialization must
// surface ctx.Err() AND withdraw its cache entry, so the next caller
// computes fresh instead of waiting forever on (or receiving) a dead
// entry.
func TestCommuteCtxCancelledNotPoisoned(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	src := randomSource(rng)
	path := randomWalkPath(rng, src, 3)
	e := New(src)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.CommuteCtx(ctx, path); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled CommuteCtx err = %v, want context.Canceled", err)
	}

	// The failed attempt must not have cached anything: a fresh call
	// succeeds and matches the naive evaluation.
	got, err := e.CommuteCtx(context.Background(), path)
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	sameMatrix(t, "retry", got, naiveCommute(src, path))
}

// TestCommuteCtxWaiterCancel: a waiter blocked on another goroutine's
// in-flight materialization honors its own context, while the computing
// goroutine still finishes and caches the result.
func TestCommuteCtxWaiterCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	src := randomSource(rng)
	path := randomWalkPath(rng, src, 4)
	e := New(src)

	var wg sync.WaitGroup
	results := make([]error, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%2 == 1 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				cancel()
			}
			_, results[i] = e.CommuteCtx(ctx, path)
		}(i)
	}
	wg.Wait()
	for i, err := range results {
		if i%2 == 1 {
			// Cancelled callers may still have won the compute race (and
			// then completed: the pre-existing ParRange path ignores a
			// dead ctx only if it never polls) — but a returned error
			// must be the context's.
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled caller %d: err = %v", i, err)
			}
		} else if err != nil {
			t.Errorf("live caller %d: err = %v", i, err)
		}
	}

	// Whatever the interleaving, the engine must end consistent: a
	// fresh call returns the correct matrix.
	got, err := e.CommuteCtx(context.Background(), path)
	if err != nil {
		t.Fatalf("final call: %v", err)
	}
	sameMatrix(t, "final", got, naiveCommute(src, path))
}
