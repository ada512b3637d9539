package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestAdmissionShedsNotHangs: with every admission slot held, a heavy
// request must come back as a prompt 503 — bounded by AdmissionWait —
// rather than queueing indefinitely. This is the serving tier's
// overload contract, exercised at scale by the loadgen saturation test.
func TestAdmissionShedsNotHangs(t *testing.T) {
	s := newTestServer(t, Options{MaxConcurrent: 1, AdmissionWait: 50 * time.Millisecond})

	// Occupy the only admission slot directly.
	s.adm.sem <- struct{}{}
	defer func() { <-s.adm.sem }()

	start := time.Now()
	code := get(t, s, "GET", "/v1/pathsim/topk?id=0&k=5", nil)
	elapsed := time.Since(start)

	if code != http.StatusServiceUnavailable {
		t.Fatalf("saturated heavy endpoint returned %d, want 503", code)
	}
	if elapsed < 40*time.Millisecond {
		t.Errorf("rejected after %v, before AdmissionWait elapsed", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Errorf("rejection took %v; admission is hanging, not shedding", elapsed)
	}
	if got := s.rejAd.Load(); got != 1 {
		t.Errorf("admission rejected = %d, want 1", got)
	}

	// Light endpoints bypass admission entirely and must still serve.
	if code := get(t, s, "GET", "/v1/stats", nil); code != http.StatusOK {
		t.Errorf("light endpoint returned %d while heavy slots are full", code)
	}
}

// TestAdmissionFailFast: AdmissionWait < 0 rejects without waiting.
func TestAdmissionFailFast(t *testing.T) {
	s := newTestServer(t, Options{MaxConcurrent: 1, AdmissionWait: -1})
	s.adm.sem <- struct{}{}
	defer func() { <-s.adm.sem }()

	start := time.Now()
	code := get(t, s, "GET", "/v1/pathsim/topk?id=0&k=5", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("got %d, want 503", code)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("fail-fast rejection took %v", elapsed)
	}
}

// TestAdmissionRecovers: once the slot frees, the same request serves.
func TestAdmissionRecovers(t *testing.T) {
	s := newTestServer(t, Options{MaxConcurrent: 1, AdmissionWait: -1})
	s.adm.sem <- struct{}{}
	if code := get(t, s, "GET", "/v1/pathsim/topk?id=0&k=5", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("saturated: got %d, want 503", code)
	}
	<-s.adm.sem
	if code := get(t, s, "GET", "/v1/pathsim/topk?id=0&k=5", nil); code != http.StatusOK {
		t.Fatalf("after release: got %d, want 200", code)
	}
}

// TestMetricsDeterministicOrder pins the /metrics exposition's metric
// name sequence. Golden-trace replays and the loadgen scraper depend on
// the exposition being stable across runs; sorting (not map order) is
// what guarantees it. Extend the list when adding metrics — the point
// is that the order never varies run to run.
func TestMetricsDeterministicOrder(t *testing.T) {
	s := newTestServer(t, Options{})
	// Touch a few endpoints so counters are live, then scrape twice.
	get(t, s, "GET", "/v1/stats", nil)
	get(t, s, "GET", "/v1/pathsim/topk?id=0&k=5", nil)

	scrape := func() []string {
		req := httptest.NewRequest("GET", "/metrics", nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("/metrics returned %d", rec.Code)
		}
		var names []string
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			names = append(names, strings.SplitN(line, " ", 2)[0])
		}
		return names
	}

	first := scrape()
	get(t, s, "GET", "/v1/rank?metric=pagerank&top=5", nil) // perturb counters between scrapes
	second := scrape()

	if len(first) != len(second) {
		t.Fatalf("metric count changed between scrapes: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("metric order varies at %d: %q vs %q", i, first[i], second[i])
		}
	}

	// The serving counters the loadgen harness consumes must exist under
	// their pinned names.
	need := []string{
		"hinet_snapshot_epoch",
		"hinet_cache_hits_total",
		"hinet_cache_misses_total",
		"hinet_admission_rejected_total",
		`hinet_http_requests_total{endpoint="/v1/pathsim/topk"}`,
	}
	have := map[string]bool{}
	for _, n := range first {
		have[n] = true
	}
	for _, n := range need {
		if !have[n] {
			t.Errorf("/metrics lacks %s", n)
		}
	}
}
