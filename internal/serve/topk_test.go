package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hinet/internal/dblp"
	"hinet/internal/obs"
)

// TestConcurrentTopKRace hammers the miss path from many
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

func TestTopKRejectsBadIDs(t *testing.T) {
	s := newTestServer(t, Options{})
	ctx := context.Background()
	for _, x := range []int{-1, s.Snapshot().IndexDim} {
		if _, _, err := s.TopK(ctx, x, 5); err == nil {
			t.Fatalf("id %d accepted", x)
		}
	}
}

func TestTopKAfterShutdown(t *testing.T) {
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

// TestMissesNeverQueue: a top-k miss waits for no other. More distinct
// concurrent misses than cores — 2·GOMAXPROCS+1 — each run their own
// kernel call on their own goroutine, so every one returns in about one
// injected delay; a miss queued behind busy callers would take two.
func TestMissesNeverQueue(t *testing.T) {
	const delay = 50 * time.Millisecond
	s := newTestServer(t, Options{CacheCapacity: -1, ControlInterval: -1, Chaos: slowChaos(delay)})
	n := 2*runtime.GOMAXPROCS(0) + 1
	took := make([]time.Duration, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := s.TopK(context.Background(), i, 5); err != nil {
				t.Errorf("miss %d: %v", i, err)
			}
			took[i] = time.Since(start)
		}(i)
	}
	wg.Wait()
	for i, d := range took {
		if d >= 2*delay {
			t.Errorf("miss %d of %d took %v with a %v kernel: it waited for another miss", i, n, d, delay)
		}
	}
}

// TestAbandonedBatchIsCancelled: a miss whose context is cancelled while
// its chaos kernel delay runs returns at once with the cancellation,
// and its kernel call never runs.
func TestAbandonedBatchIsCancelled(t *testing.T) {
	s := newTestServer(t, Options{CacheCapacity: -1, ControlInterval: -1, Chaos: slowChaos(2 * time.Second)})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.TopK(ctx, 1, 5)
		errc <- err
	}()
	for s.opts.Chaos.Stats().Kernels == 0 { // the miss is inside its delay
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Errorf("err = %v, want canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("abandoned miss returned %v after its cancellation", d)
	}
	if n := s.Snapshot().Stats()[0].Queries; n != 0 {
		t.Errorf("shard queries = %d, want 0: the abandoned kernel call ran", n)
	}
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

// TestShutdownLeavesNoGoroutines is the leak check for the whole server:
// boot, mixed traffic over real connections with an ingest in the
// middle, Shutdown — and the process is back at its pre-boot goroutine
// count: the admission controller, the http.Server and its connections
// are gone. At one shard and at three.
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

// TestColdPathBuildOffDispatcher: the first query over a new meta-path
// materializes it under its own request's resolve span, on that
// request's goroutine — so default-path queries issued meanwhile are
// answered while the build is still running, not queued behind it. At
// one core that holds because the build's SpGEMM yields at its
// row-block checkpoints, which a request's context enables: the cold
// request carries a cancelable one, as net/http gives every request.
func TestColdPathBuildOffDispatcher(t *testing.T) {
	s := newTestServer(t, Options{Seed: 1, CacheCapacity: -1, ControlInterval: -1,
		Models: ModelConfig{Corpus: dblp.Config{AuthorsPerArea: 1000, Papers: 10_000}}})
	cold := make(chan *obs.TraceJSON, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		var body struct {
			Trace *obs.TraceJSON `json:"trace"`
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/pathsim/topk?path=A-P-T-P-A&id=0&k=10&debug=1", nil).WithContext(ctx))
		code, out := rec.Code, rec.Body.String()
		if err := json.Unmarshal([]byte(out), &body); code != 200 || err != nil || body.Trace == nil {
			t.Errorf("cold path query = %d (%v): %s", code, err, out)
			body.Trace = &obs.TraceJSON{}
		}
		cold <- body.Trace
	}()
	// Default-path queries, back to back, until the cold one is done.
	type span struct{ from, to time.Time }
	var quick []span
	var tr *obs.TraceJSON
	for i := 0; tr == nil; i++ {
		from := time.Now()
		if code := get(t, s, "GET", "/v1/pathsim/topk?id="+itoa(i%4000)+"&k=10", nil); code != 200 {
			t.Fatalf("default path query = %d", code)
		}
		quick = append(quick, span{from, time.Now()})
		select {
		case tr = <-cold:
		default:
		}
	}
	begin, err := time.Parse(time.RFC3339Nano, tr.Start)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range tr.Stages {
		if sp.Stage != "resolve" {
			continue
		}
		if sp.Note != "built" {
			t.Fatalf("resolve note = %q, want built", sp.Note)
		}
		from := begin.Add(time.Duration(sp.StartUS * 1e3))
		to := from.Add(time.Duration(sp.DurUS * 1e3))
		during := 0
		for _, q := range quick {
			if !q.from.Before(from) && !q.to.After(to) {
				during++
			}
		}
		t.Logf("cold build took %.1f ms under resolve; %d default-path queries started and finished inside it", sp.DurUS/1e3, during)
		if during < 3 {
			t.Fatalf("%d default-path queries completed during the %.1f ms cold build, want >= 3: it blocked them", during, sp.DurUS/1e3)
		}
		return
	}
	t.Fatal("cold path trace has no resolve span")
}
