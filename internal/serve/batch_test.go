package serve

import (
	"context"
	"io"
	"net/http"
	"runtime"
	"strings"
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
		if _, err := s.coord.Rebuild(6); err != nil {
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

// holdSlots parks one chaos-delayed miss in every leader slot (ids 0, 1,
// …) and returns once all slots are taken; wait blocks until they are
// answered. The server must have been booted with slowChaos.
func holdSlots(t *testing.T, s *Server) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < s.batch.slots; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := s.TopK(context.Background(), i, 5); err != nil {
				t.Errorf("slot holder %d: %v", i, err)
			}
		}(i)
	}
	waitBatcher(t, s.batch, "every slot taken", func() bool { return s.batch.free == 0 })
	return wg.Wait
}

// waitBatcher polls the batcher's locked state until cond holds.
func waitBatcher(t *testing.T, b *batcher, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		b.mu.Lock()
		ok := cond()
		b.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("batcher never reached: %s", what)
		}
	}
}

// TestLeadersRunSideBySide: concurrent distinct misses, one per slot
// (two at least), each lead their own kernel call, so all finish in
// about one injected delay — behind a single dispatcher two took two —
// and none of them rides in another's batch.
func TestLeadersRunSideBySide(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const delay = 50 * time.Millisecond
	s := newTestServer(t, Options{CacheCapacity: -1, ControlInterval: -1, Chaos: slowChaos(delay)})
	start := time.Now()
	holdSlots(t, s)()
	if d := time.Since(start); d >= 2*delay-10*time.Millisecond {
		t.Errorf("%d distinct misses took %v with a %v kernel: they ran one after the other", s.batch.slots, d, delay)
	}
	if b, l := s.batch.batches.Load(), s.batch.largest.Load(); int(b) != s.batch.slots || l != 1 {
		t.Errorf("batches = %d, largest = %d; want %d single-rider batches", b, l, s.batch.slots)
	}
}

// TestBusySlotsCoalesce: requests that arrive while every slot computes
// queue up and share one kernel call — mixed k trimmed per request,
// duplicate ids computed once — at any slot count.
func TestBusySlotsCoalesce(t *testing.T) {
	s := newTestServer(t, Options{CacheCapacity: -1, ControlInterval: -1, Chaos: slowChaos(40 * time.Millisecond)})
	slots := s.batch.slots
	wait := holdSlots(t, s)

	ids := []int{20, 20, 21, 22, 23, 20, 24, 21}
	lens := make([]int, len(ids))
	var wg sync.WaitGroup
	for i, x := range ids {
		wg.Add(1)
		go func(i, x int) {
			defer wg.Done()
			pairs, _, err := s.TopK(context.Background(), x, 3+6*(i%2))
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
			}
			lens[i] = len(pairs)
		}(i, x)
	}
	waitBatcher(t, s.batch, "every follower queued", func() bool { return len(s.batch.queue) == len(ids) })
	wait()
	wg.Wait()

	b := s.batch
	if got := int(b.batches.Load()) - slots; got >= len(ids) || got < 1 {
		t.Errorf("%d queued requests took %d kernel calls, want fewer", len(ids), got)
	}
	if got, want := int(b.queries.Load()), slots+len(ids); got != want {
		t.Errorf("queries = %d, want %d", got, want)
	}
	if got, want := int(b.unique.Load()), slots+5; got != want {
		t.Errorf("unique = %d, want %d (duplicate ids share one computation)", got, want)
	}
	if b.largest.Load() < 2 {
		t.Errorf("largest batch = %d, want >= 2", b.largest.Load())
	}
	for i, n := range lens {
		if k := 3 + 6*(i%2); n == 0 || n > k {
			t.Errorf("follower %d (k=%d) got %d pairs", i, k, n)
		}
	}
	if lens[1] < lens[0] || lens[1] != lens[5] {
		t.Errorf("same id at k=3/9/9 answered with %d/%d/%d pairs", lens[0], lens[1], lens[5])
	}
	waitBatcher(t, b, "every slot back", func() bool { return b.free == slots && len(b.queue) == 0 })
}

// TestExpiredFollowerIsDropped: a follower whose deadline passes while
// it is queued returns at once, is not computed for, and leaves the
// queue serving the follower behind it.
func TestExpiredFollowerIsDropped(t *testing.T) {
	s := newTestServer(t, Options{CacheCapacity: -1, ControlInterval: -1, Chaos: slowChaos(40 * time.Millisecond)})
	slots := s.batch.slots
	wait := holdSlots(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	expired := make(chan error, 1)
	go func() {
		_, _, err := s.TopK(ctx, 30, 5)
		expired <- err
	}()
	waitBatcher(t, s.batch, "first follower queued", func() bool { return len(s.batch.queue) == 1 })
	alive := make(chan error, 1)
	go func() {
		_, _, err := s.TopK(context.Background(), 31, 5)
		alive <- err
	}()
	if err := <-expired; err != context.DeadlineExceeded {
		t.Errorf("expired follower: err = %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d >= 40*time.Millisecond {
		t.Errorf("expired follower returned after %v: it waited for a leader", d)
	}
	if err := <-alive; err != nil {
		t.Errorf("follower behind the expired one: %v", err)
	}
	wait()
	b := s.batch
	waitBatcher(t, b, "every slot back", func() bool { return b.free == slots && len(b.queue) == 0 })
	if got, want := int(b.unique.Load()), slots+1; got != want {
		t.Errorf("unique = %d, want %d: the expired follower was computed for", got, want)
	}
}

// batcherGoroutines counts live goroutines with a batcher frame on
// their stack.
func batcherGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "serve.(*batcher)") {
			n++
		}
	}
	return n
}

// goroutineBaseline boots and shuts down one throwaway server — which
// starts whatever the process keeps for good (the sparse worker pool) —
// and returns the goroutine count left after it.
func goroutineBaseline(t *testing.T) int {
	t.Helper()
	warm := New(Options{Models: testConfig(), ControlInterval: -1})
	if _, _, err := warm.TopK(context.Background(), 0, 5); err != nil {
		t.Fatal(err)
	}
	_ = warm.Shutdown(context.Background())
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

// settleGoroutines waits for the process to be back at base goroutines,
// and fails with every stack if it is not within 5 s.
func settleGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, %d before boot:\n%s", what, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestBatcherLeavesNoGoroutines: an idle server has no batcher
// goroutine, helpers end with the queue, and Shutdown — also one issued
// mid-batch, which fails the queued followers — returns the process to
// its pre-boot goroutine count.
func TestBatcherLeavesNoGoroutines(t *testing.T) {
	base := goroutineBaseline(t)

	s := New(Options{Models: testConfig(), CacheCapacity: -1, ControlInterval: -1, Chaos: slowChaos(30 * time.Millisecond)})
	if n := batcherGoroutines(); n != 0 || runtime.NumGoroutine() > base {
		t.Fatalf("idle booted server: %d batcher goroutines, %d goroutines against %d before boot", n, runtime.NumGoroutine(), base)
	}
	// A contended round: followers queue, a helper answers them and ends.
	wait := holdSlots(t, s)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := s.TopK(context.Background(), 40+i, 5); err != nil {
				t.Errorf("follower %d: %v", i, err)
			}
		}(i)
	}
	wait()
	wg.Wait()
	waitBatcher(t, s.batch, "every slot back", func() bool { return s.batch.free == s.batch.slots })
	settleGoroutines(t, "after a contended round", base)
	if n := batcherGoroutines(); n != 0 {
		t.Fatalf("%d batcher goroutines outlived an empty queue", n)
	}

	// Shutdown mid-batch: the leaders finish, the queued follower fails.
	wait = holdSlots(t, s)
	queued := make(chan error, 1)
	go func() {
		_, _, err := s.TopK(context.Background(), 50, 5)
		queued <- err
	}()
	waitBatcher(t, s.batch, "follower queued", func() bool { return len(s.batch.queue) == 1 })
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	s.batch.mu.Lock()
	free := s.batch.free
	s.batch.mu.Unlock()
	if free != s.batch.slots {
		t.Errorf("Shutdown returned with %d of %d slots back", free, s.batch.slots)
	}
	if err := <-queued; err != errShutdown {
		t.Errorf("queued follower at shutdown: err = %v, want errShutdown", err)
	}
	wait()
	settleGoroutines(t, "after Shutdown", base)
}

// TestShutdownLeavesNoGoroutines is the leak check for the whole server,
// not just the batcher: boot, mixed traffic over real connections with
// an ingest in the middle, Shutdown — and the process is back at its
// pre-boot goroutine count: the admission controller, the http.Server
// and its connections are gone, and no batcher helper outlived the
// traffic. At one shard and at three.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	base := goroutineBaseline(t)
	for _, shards := range []int{1, 3} {
		s := New(Options{Addr: "127.0.0.1:0", Models: testConfig(), Shards: shards})
		addr, err := s.Start()
		if err != nil {
			t.Fatal(err)
		}
		tp := &http.Transport{}
		client := &http.Client{Transport: tp}
		reads := func() {
			var wg sync.WaitGroup
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for _, path := range []string{
						"/v1/pathsim/topk?id=" + itoa(c) + "&k=5", "/v1/rank?top=3", "/v1/clusters?top=2",
						"/v1/pathsim/topk?path=A-P-A&id=" + itoa(c) + "&k=5", "/v1/stats", "/metrics",
						"/v1/pathsim/topk?id=" + itoa(c) + "&k=5",
					} {
						resp, err := client.Get("http://" + addr + path)
						if err != nil {
							t.Errorf("client %d: %s: %v", c, path, err)
							return
						}
						_, _ = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode != 200 {
							t.Errorf("client %d: %s = %d", c, path, resp.StatusCode)
						}
					}
				}(c)
			}
			wg.Wait()
		}
		reads()
		resp, err := client.Post("http://"+addr+"/v1/ingest", "application/json", strings.NewReader(ingestBody(t, s, "leak")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("ingest = %d", resp.StatusCode)
		}
		reads()
		tp.CloseIdleConnections()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatalf("%d shards: Shutdown: %v", shards, err)
		}
		settleGoroutines(t, itoa(shards)+" shards, after Shutdown", base)
	}
}

// TestTopKRacingShutdown: callers that race Shutdown get an answer or
// errShutdown — none of them is left waiting on a reply nobody sends.
func TestTopKRacingShutdown(t *testing.T) {
	s := newTestServer(t, Options{CacheCapacity: -1, ControlInterval: -1})
	dim := s.Snapshot().IndexDim
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if _, _, err := s.TopK(context.Background(), (g+16*i)%dim, 5); err != nil {
					if err != errShutdown {
						t.Errorf("caller %d: %v", g, err)
					}
					return
				}
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("callers still blocked 5s after Shutdown returned")
	}
}

// TestAbandonedBatchIsCancelled: once every rider of a shared batch has
// gone, its kernel call is abandoned rather than served out. The two
// riders queue behind held slots, so they share the batch a helper
// picks up when the slot holders are answered.
func TestAbandonedBatchIsCancelled(t *testing.T) {
	s := newTestServer(t, Options{CacheCapacity: -1, ControlInterval: -1, Chaos: slowChaos(2 * time.Second)})
	wait := holdSlots(t, s)
	defer wait()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, x := range []int{1, 2} {
		wg.Add(1)
		go func(x int) {
			defer wg.Done()
			if _, _, err := s.TopK(ctx, x, 5); err != context.Canceled {
				t.Errorf("id %d: err = %v, want canceled", x, err)
			}
		}(x)
	}
	waitBatcher(t, s.batch, "both riders queued", func() bool { return len(s.batch.queue) == 2 })
	waitBatcher(t, s.batch, "both riders in one batch", func() bool {
		return len(s.batch.queue) == 0 && s.batch.free == s.batch.slots-1
	})
	start := time.Now()
	cancel()
	wg.Wait()
	waitBatcher(t, s.batch, "the slot back", func() bool { return s.batch.free == s.batch.slots })
	if d := time.Since(start); d > time.Second {
		t.Errorf("abandoned batch held its slot for %v", d)
	}
	if n := s.batch.batches.Load() - uint64(s.batch.slots); n != 0 {
		t.Errorf("batches = %d beyond the slot holders', want 0: the abandoned kernel call completed", n)
	}
}
