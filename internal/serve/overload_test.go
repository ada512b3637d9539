package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hinet/internal/chaos"
)

// slowChaos pins the kernel to a known, machine-independent cost so
// deadline and disconnect tests are deterministic rather than racing
// the real (microsecond-scale) kernel on the tiny test corpus.
func slowChaos(kernel time.Duration) *chaos.Injector {
	return chaos.New(chaos.Config{KernelDelay: kernel})
}

// TestDeadlinePropagation: a request carrying timeout_ms shorter than
// the kernel cost must come back 504 — the deadline is enforced through
// admission → kernel call, not just at the HTTP edge —
// and be accounted in the timeouts counter.
func TestDeadlinePropagation(t *testing.T) {
	s := newTestServer(t, Options{ControlInterval: -1, Chaos: slowChaos(80 * time.Millisecond)})

	req := httptest.NewRequest("GET", "/v1/pathsim/topk?id=0&k=5&timeout_ms=15", nil)
	rec := httptest.NewRecorder()
	start := time.Now()
	s.Handler().ServeHTTP(rec, req)
	elapsed := time.Since(start)

	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("got %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "deadline") {
		t.Errorf("504 body does not mention the deadline: %s", rec.Body.String())
	}
	// The response must arrive near the deadline, not after the kernel.
	if elapsed >= 80*time.Millisecond {
		t.Errorf("504 took %v; deadline did not cut the request short", elapsed)
	}
	if got := s.Admission().Timeouts; got != 1 {
		t.Errorf("Timeouts = %d, want 1", got)
	}
}

// TestDefaultTimeout: Options.DefaultTimeout applies when the client
// sends no timeout_ms.
func TestDefaultTimeout(t *testing.T) {
	s := newTestServer(t, Options{
		ControlInterval: -1,
		DefaultTimeout:  15 * time.Millisecond,
		Chaos:           slowChaos(80 * time.Millisecond),
	})
	if code := get(t, s, "GET", "/v1/pathsim/topk?id=0&k=5", nil); code != http.StatusGatewayTimeout {
		t.Fatalf("got %d, want 504", code)
	}
}

// TestRequestTimeoutClamps: a timeout_ms whose nanoseconds overflow an
// int64 asks for the longest deadline there is, not a wrapped one
// (18446744073710 ms wraps to 448 384 ns).
func TestRequestTimeoutClamps(t *testing.T) {
	s := &Server{opts: Options{DefaultTimeout: time.Second}}
	longest := time.Duration(math.MaxInt64/time.Millisecond) * time.Millisecond
	for _, tc := range []struct {
		query string
		want  time.Duration
	}{
		{"timeout_ms=15", 15 * time.Millisecond},
		{"timeout_ms=9223372036854", 9223372036854 * time.Millisecond}, // the longest that fits
		{"timeout_ms=9223372036855", longest},
		{"timeout_ms=18446744073710", longest},
		{"timeout_ms=9223372036854775807", longest},
		{"timeout_ms=0", time.Second},
		{"timeout_ms=-5", time.Second},
		{"", time.Second},
	} {
		if got := s.requestTimeout(httptest.NewRequest("GET", "/v1/pathsim/topk?"+tc.query, nil)); got != tc.want {
			t.Errorf("%q: deadline %v, want %v", tc.query, got, tc.want)
		}
	}
}

// shedBody is the machine-readable overload response contract.
type shedBody struct {
	Error        string `json:"error"`
	Class        string `json:"class"`
	RetryAfterMS int    `json:"retry_after_ms"`
}

// TestShedResponseFormat: every shed carries a Retry-After header and
// the JSON overload body loadgen's closed-loop backoff consumes.
func TestShedResponseFormat(t *testing.T) {
	s := newTestServer(t, Options{MaxConcurrent: 1, AdmissionWait: -1, ControlInterval: -1})

	// Query shed: the only slot is occupied.
	s.adm.sem <- struct{}{}
	req := httptest.NewRequest("GET", "/v1/pathsim/topk?id=0&k=5", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	<-s.adm.sem
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("got %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 lacks a Retry-After header")
	}
	var body shedBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("shed body is not JSON: %v\n%s", err, rec.Body.String())
	}
	if body.Error != "overloaded" || body.Class != "query" || body.RetryAfterMS <= 0 {
		t.Errorf("shed body = %+v, want error=overloaded class=query retry_after_ms>0", body)
	}

	// Write shed: inflight at 3/4 of the limit sheds writes before
	// queries (with limit 1 the threshold is 1 inflight request).
	s.adm.inflight.Add(1)
	defer s.adm.inflight.Add(-1)
	req = httptest.NewRequest("POST", "/v1/rebuild", nil)
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("write got %d, want 503", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Class != "write" {
		t.Errorf("write shed body = %+v (err %v), want class=write", body, err)
	}
	if got := s.Admission().ShedWrite; got != 1 {
		t.Errorf("ShedWrite = %d, want 1", got)
	}
}

// TestAIMDLimiter drives the controller deterministically (no ticker:
// ControlInterval < 0) and checks the limit walks down multiplicatively
// under an over-target window, holds tokens to enforce it, and probes
// back up additively once the window clears.
func TestAIMDLimiter(t *testing.T) {
	s := newTestServer(t, Options{
		MaxConcurrent: 8, AdmissionFloor: 2,
		SLOTargetP99: 10 * time.Millisecond, ControlInterval: -1,
	})
	a := s.adm
	if a.Limit() != 8 {
		t.Fatalf("initial limit = %d, want 8 (the ceiling)", a.Limit())
	}

	overTarget := func() {
		for i := 0; i < 8; i++ {
			a.lat.Observe(50 * time.Millisecond)
		}
	}

	overTarget()
	s.controlStep()
	if a.Limit() != 5 {
		t.Fatalf("after one over-target window: limit = %d, want 5 (8×0.7)", a.Limit())
	}
	// No requests are in flight, so converge acquires all held tokens
	// immediately: effective capacity matches the limit.
	if held := len(a.sem); held != 3 {
		t.Errorf("controller holds %d tokens, want 3 (ceil−limit)", held)
	}

	overTarget()
	s.controlStep()
	overTarget()
	s.controlStep()
	overTarget()
	s.controlStep()
	if a.Limit() != 2 {
		t.Fatalf("after sustained overload: limit = %d, want the floor 2", a.Limit())
	}

	// Idle (empty) windows probe back up one step per tick.
	s.controlStep()
	s.controlStep()
	if a.Limit() != 4 {
		t.Errorf("after two healthy ticks: limit = %d, want 4", a.Limit())
	}
}

// TestFloorHoldsNoLoneMiss: a squeezed limit admits fewer requests but
// makes none of them slower. A lone uncached top-k miss at the floor —
// one admitted heavy request — costs what it costs at the ceiling:
// nothing holds it back waiting for a companion admission would not
// let in.
func TestFloorHoldsNoLoneMiss(t *testing.T) {
	s := newTestServer(t, Options{
		MaxConcurrent: 8, SLOTargetP99: 10 * time.Millisecond, ControlInterval: -1,
		CacheCapacity: -1, BrownoutEnter: 1000, // brownout stays off: every miss reaches the kernel
	})
	dim := s.Snapshot().IndexDim
	medianMiss := func() time.Duration {
		const n = 50
		lat := make([]time.Duration, n)
		for i := range lat {
			start := time.Now()
			if code := get(t, s, "GET", "/v1/pathsim/topk?k=10&id="+itoa(i%dim), nil); code != http.StatusOK {
				t.Fatalf("miss %d = %d", i, code)
			}
			lat[i] = time.Since(start)
		}
		slices.Sort(lat)
		return lat[n/2]
	}

	a := s.adm
	ceiling := medianMiss()
	for tick := 0; a.Limit() > a.floor; tick++ {
		if tick == 10 {
			t.Fatalf("limit stuck at %d, floor %d", a.Limit(), a.floor)
		}
		for i := 0; i < 8; i++ {
			a.lat.Observe(50 * time.Millisecond)
		}
		s.controlStep()
	}
	floor := medianMiss()
	t.Logf("median uncached miss: %v at the ceiling (%d), %v at the floor (%d)", ceiling, a.ceil, floor, a.floor)
	if floor > ceiling+time.Millisecond {
		t.Errorf("a lone miss takes %v at the floor against %v at the ceiling: it waited for a companion", floor, ceiling)
	}
}

// TestBrownout: sustained over-target windows trip degraded mode —
// cache-only serving with truncated k and a "degraded" annotation,
// writes shed outright — and healthy windows recover automatically.
func TestBrownout(t *testing.T) {
	s := newTestServer(t, Options{
		MaxConcurrent: 4, SLOTargetP99: 10 * time.Millisecond, ControlInterval: -1,
		BrownoutEnter: 2, BrownoutExit: 2,
	})

	// Prime the cache so degraded mode has something to answer from.
	if code := get(t, s, "GET", "/v1/pathsim/topk?id=0&k=5", nil); code != 200 {
		t.Fatalf("prime query = %d", code)
	}

	for tick := 0; tick < 2; tick++ {
		for i := 0; i < 8; i++ {
			s.adm.lat.Observe(100 * time.Millisecond)
		}
		s.controlStep()
	}
	if !s.Admission().Degraded {
		t.Fatal("two over-target ticks did not enter brownout")
	}
	if got := s.Admission().Brownouts; got != 1 {
		t.Errorf("Brownouts = %d, want 1", got)
	}

	// Cached answer still serves, annotated, with k truncated to
	// brownoutK (k=50 hits the same cache entry as the k=5 prime).
	req := httptest.NewRequest("GET", "/v1/pathsim/topk?id=0&k=50", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("degraded cached query = %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Degraded bool   `json:"degraded"`
		Source   string `json:"source"`
		K        int    `json:"k"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if !body.Degraded || body.Source != "cache" || body.K != 5 {
		t.Errorf("degraded payload = %+v, want degraded=true source=cache k=5", body)
	}
	if got := s.Admission().DegradedResponses; got != 1 {
		t.Errorf("DegradedResponses = %d, want 1", got)
	}

	// A cache miss sheds instead of dispatching the kernel.
	if code := get(t, s, "GET", "/v1/pathsim/topk?id=1&k=5", nil); code != http.StatusServiceUnavailable {
		t.Errorf("degraded cache miss = %d, want 503", code)
	}
	// An unmaterialized path sheds instead of building an index.
	if code := get(t, s, "GET", "/v1/pathsim/topk?id=0&k=5&path=A-P-A", nil); code != http.StatusServiceUnavailable {
		t.Errorf("degraded unbuilt path = %d, want 503", code)
	}
	// Writes shed outright during a brownout.
	if code := get(t, s, "POST", "/v1/rebuild", nil); code != http.StatusServiceUnavailable {
		t.Errorf("degraded write = %d, want 503", code)
	}

	// Healthy (idle) windows recover automatically.
	s.controlStep()
	s.controlStep()
	if s.Admission().Degraded {
		t.Fatal("two healthy ticks did not exit brownout")
	}
	if code := get(t, s, "GET", "/v1/pathsim/topk?id=1&k=5", nil); code != 200 {
		t.Errorf("post-recovery kernel query = %d, want 200", code)
	}
}

// TestShutdownIdempotent: Shutdown is safe to call repeatedly, later
// calls return the first result immediately, and the server sheds
// cleanly (no hangs, no panics) afterwards.
func TestShutdownIdempotent(t *testing.T) {
	s := newTestServer(t, Options{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("first Shutdown: %v", err)
	}
	start := time.Now()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("second Shutdown took %v, want immediate", d)
	}
	// Misses are refused: heavy queries fail with 503, not a hang.
	if code := get(t, s, "GET", "/v1/pathsim/topk?id=0&k=5", nil); code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown query = %d, want 503", code)
	}
}

// TestShutdownBounded: a context that expires bounds Shutdown even
// when a chaos-slowed kernel call is mid-flight.
func TestShutdownBounded(t *testing.T) {
	s := New(Options{Models: testConfig(), ControlInterval: -1, Chaos: slowChaos(300 * time.Millisecond)})
	// Park a query in its chaos delay so a kernel call is in flight.
	go func() {
		req := httptest.NewRequest("GET", "/v1/pathsim/topk?id=0&k=5", nil)
		s.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	time.Sleep(30 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Shutdown(ctx)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Shutdown took %v despite a %v context", d, 50*time.Millisecond)
	}
	if err == nil {
		t.Log("shutdown finished inside the deadline (kernel completed first)")
	}
	// Let the in-flight miss finish before the test returns.
	_ = s.Shutdown(context.Background())
	time.Sleep(350 * time.Millisecond)
}

// TestClientDisconnectMidBatch: a client that vanishes while its miss
// is in its kernel delay must not poison the cached result or leak its
// admission slot. Run under -race in CI.
func TestClientDisconnectMidBatch(t *testing.T) {
	s := newTestServer(t, Options{ControlInterval: -1, Chaos: slowChaos(40 * time.Millisecond)})

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest("GET", "/v1/pathsim/topk?id=0&k=5", nil).WithContext(ctx)
		s.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	time.Sleep(15 * time.Millisecond) // admitted, kernel delayed
	cancel()
	wg.Wait()

	// The slot came back.
	st := s.Admission()
	if st.Inflight != 0 {
		t.Errorf("Inflight = %d after disconnect, want 0", st.Inflight)
	}
	if n := len(s.adm.sem); n != 0 {
		t.Errorf("%d semaphore slots still held after disconnect", n)
	}

	// The same query answers correctly afterwards — the abandoned miss
	// did not cache a partial or poisoned result.
	req := httptest.NewRequest("GET", "/v1/pathsim/topk?id=0&k=5", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("follow-up query = %d: %s", rec.Code, rec.Body.String())
	}
	var body topKBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(body.Results) == 0 {
		t.Error("follow-up query returned no results")
	}
}
