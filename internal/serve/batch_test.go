package serve

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestConcurrentTopKRace hammers the coalescing path from many
// goroutines while a snapshot rebuild swaps the epoch mid-flight. Run
// under -race in CI; the assertions also pin answer sanity.
func TestConcurrentTopKRace(t *testing.T) {
	s := newTestServer(t, Options{Seed: 5})
	dim := s.Snapshot().IndexDim
	ctx := context.Background()

	const goroutines = 16
	const perG = 30
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				x := (g*31 + i*7) % dim
				pairs, _, err := s.TopK(ctx, x, 5)
				if err != nil {
					errs <- err
					return
				}
				for j := 1; j < len(pairs); j++ {
					if pairs[j].Score > pairs[j-1].Score {
						t.Errorf("unsorted answer for x=%d", x)
						return
					}
				}
			}
		}(g)
	}
	// Swap the snapshot while queries are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.rebuild(6); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("query error: %v", err)
	}
	if got := s.Snapshot().Epoch; got != 2 {
		t.Fatalf("epoch = %d, want 2", got)
	}
}

// TestBatcherCoalesces checks that concurrent queries share BatchTopK
// calls when a batching window is configured.
func TestBatcherCoalesces(t *testing.T) {
	s := newTestServer(t, Options{CacheCapacity: -1, BatchWindow: 10 * time.Millisecond})
	ctx := context.Background()

	const n = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if _, _, err := s.TopK(ctx, i, 5); err != nil {
				t.Errorf("query %d: %v", i, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()

	batches := s.batch.batches.Load()
	queries := s.batch.queries.Load()
	if queries != n {
		t.Fatalf("queries = %d, want %d", queries, n)
	}
	if batches >= queries {
		t.Fatalf("no coalescing: %d batches for %d queries", batches, queries)
	}
	if s.batch.largest.Load() < 2 {
		t.Fatalf("largest batch = %d", s.batch.largest.Load())
	}
}

// TestBatcherMixedK verifies per-request k trimming inside one batch.
func TestBatcherMixedK(t *testing.T) {
	s := newTestServer(t, Options{CacheCapacity: -1, BatchWindow: 10 * time.Millisecond})
	ctx := context.Background()
	var wg sync.WaitGroup
	lens := make([]int, 2)
	for i, k := range []int{3, 9} {
		wg.Add(1)
		go func(i, k int) {
			defer wg.Done()
			pairs, _, err := s.TopK(ctx, 4, k)
			if err != nil {
				t.Errorf("k=%d: %v", k, err)
				return
			}
			lens[i] = len(pairs)
		}(i, k)
	}
	wg.Wait()
	if lens[0] > 3 || lens[1] > 9 || lens[1] < lens[0] {
		t.Fatalf("lens = %v", lens)
	}
}

func TestBatcherRejectsBadIDs(t *testing.T) {
	s := newTestServer(t, Options{})
	ctx := context.Background()
	for _, x := range []int{-1, s.Snapshot().IndexDim} {
		if _, _, err := s.TopK(ctx, x, 5); err == nil {
			t.Fatalf("id %d accepted", x)
		}
	}
}

func TestBatcherShutdown(t *testing.T) {
	s := newTestServer(t, Options{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.TopK(context.Background(), 0, 5); err == nil {
		t.Fatal("TopK succeeded after shutdown")
	}
}

func TestTopKContextCancel(t *testing.T) {
	s := newTestServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.TopK(ctx, 0, 5); err == nil {
		t.Fatal("canceled context accepted")
	}
}
