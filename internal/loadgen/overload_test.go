package loadgen

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetryAfterParsing: the JSON body's millisecond hint wins over the
// header, the header's whole seconds are honored when the body has no
// hint, and both are capped at the ceiling.
func TestRetryAfterParsing(t *testing.T) {
	cases := []struct {
		name    string
		header  string
		body    string
		ceiling time.Duration
		want    time.Duration
	}{
		{"body wins", "2", `{"error":"overloaded","retry_after_ms":250}`, time.Second, 250 * time.Millisecond},
		{"header fallback", "2", `{"error":"overloaded"}`, 5 * time.Second, 2 * time.Second},
		{"body capped", "", `{"retry_after_ms":9000}`, time.Second, time.Second},
		{"header capped", "30", ``, time.Second, time.Second},
		{"no hint", "", `{}`, time.Second, 0},
		{"garbage body falls back", "1", `not json`, time.Second, time.Second},
	}
	for _, tc := range cases {
		resp := &http.Response{Header: http.Header{}}
		if tc.header != "" {
			resp.Header.Set("Retry-After", tc.header)
		}
		if got := retryAfter(resp, []byte(tc.body), tc.ceiling); got != tc.want {
			t.Errorf("%s: retryAfter = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestBodyDegraded: both compact and indented encodings of the
// brownout annotation are recognized; absence and false are not.
func TestBodyDegraded(t *testing.T) {
	if !bodyDegraded([]byte(`{"degraded":true,"results":[]}`)) {
		t.Error("compact encoding not detected")
	}
	if !bodyDegraded([]byte("{\n  \"degraded\": true\n}")) {
		t.Error("indented encoding not detected")
	}
	if bodyDegraded([]byte(`{"degraded":false}`)) {
		t.Error("degraded:false misread as degraded")
	}
	if bodyDegraded([]byte(`{"results":[]}`)) {
		t.Error("absent annotation misread as degraded")
	}
}

// TestHonorRetryAfterClosedLoop: a closed-loop run against a server
// that sheds with a backoff hint slows down when HonorRetryAfter is
// set, and counts every shed either way.
func TestHonorRetryAfterClosedLoop(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Shed every other request with a 40ms hint.
		if hits.Add(1)%2 == 0 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"overloaded","class":"query","retry_after_ms":40}`))
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	events := make([]Event, 8)
	for i := range events {
		events[i] = Event{Cohort: "t", Path: "/"}
	}
	target := NewTarget(ts.URL)

	start := time.Now()
	res := Run(target, events, RunOptions{Concurrency: 1, HonorRetryAfter: true})
	elapsed := time.Since(start)
	if res.ShedServer != 4 {
		t.Fatalf("ShedServer = %d, want 4", res.ShedServer)
	}
	if res.Admitted.Count() != 4 {
		t.Fatalf("Admitted = %d, want 4", res.Admitted.Count())
	}
	// Four sheds × 40ms backoff: the run cannot finish faster than the
	// honored hints allow.
	if elapsed < 160*time.Millisecond {
		t.Errorf("run took %v with HonorRetryAfter; backoff hints were not honored", elapsed)
	}

	hits.Store(0)
	start = time.Now()
	res = Run(target, events, RunOptions{Concurrency: 1})
	if got := time.Since(start); got > 150*time.Millisecond {
		t.Errorf("run without HonorRetryAfter took %v; sheds should not stall it", got)
	}
	if res.ShedServer != 4 {
		t.Errorf("ShedServer = %d without honoring, want 4 (counting is independent)", res.ShedServer)
	}
}

// TestRecordCountsErrors: a recorded run applies the error rule before
// it records the status, so recording against a failing server reports
// the failures instead of writing them into the trace as expected.
func TestRecordCountsErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	for _, record := range []bool{false, true} {
		events := []Event{{Cohort: "a", Path: "/", ExpectStatus: 200}, {Cohort: "b", Path: "/", ExpectStatus: 200}}
		res := Run(NewTarget(ts.URL), events, RunOptions{Record: record})
		if res.Requests != 2 || res.Errors != 2 {
			t.Errorf("record %v: %d requests, %d errors; want 2 and 2", record, res.Requests, res.Errors)
		}
	}
}

// TestRunCountsAreCohortSums: on a run with client sheds, 503s, 504s,
// 500s, brownouts and mismatches spread over three cohorts, every run
// counter is the sum of its cohorts' counters, and each kind occurred.
func TestRunCountsAreCohortSums(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/hold":
			time.Sleep(250 * time.Millisecond)
		case "/503":
			w.WriteHeader(http.StatusServiceUnavailable)
		case "/504":
			w.WriteHeader(http.StatusGatewayTimeout)
		case "/500":
			w.WriteHeader(http.StatusInternalServerError)
		case "/degraded":
			w.Write([]byte(`{"degraded":true}`))
		}
	}))
	defer ts.Close()

	ms := func(n int64) int64 { return n * 1000 }
	events := []Event{
		// Three holds fill MaxInFlight, so the arrival after them is shed.
		{OffsetUS: 0, Cohort: "a", Path: "/hold"},
		{OffsetUS: 0, Cohort: "b", Path: "/hold"},
		{OffsetUS: 0, Cohort: "c", Path: "/hold"},
		{OffsetUS: ms(1), Cohort: "b", Path: "/shed"},
		// Each of the rest finishes long before the next arrives.
		{OffsetUS: ms(500), Cohort: "a", Path: "/503", ExpectStatus: 503},
		{OffsetUS: ms(520), Cohort: "b", Path: "/503"},
		{OffsetUS: ms(540), Cohort: "c", Path: "/504"},
		{OffsetUS: ms(560), Cohort: "a", Path: "/500"},
		{OffsetUS: ms(580), Cohort: "c", Path: "/degraded"},
		{OffsetUS: ms(600), Cohort: "b", Path: "/ok", ExpectStatus: 200, Digest: "not-the-digest"},
	}
	res := Run(NewTarget(ts.URL), events, RunOptions{MaxInFlight: 3, CheckDigests: true})

	var sum counts
	var hist, admitted uint64
	for _, c := range res.Cohorts {
		sum.add(c.counts)
		hist += c.Hist.Count()
		admitted += c.Admitted.Count()
	}
	if res.counts != sum {
		t.Errorf("run counts %+v, cohorts sum to %+v", res.counts, sum)
	}
	if hist != res.Hist.Count() || admitted != res.Admitted.Count() {
		t.Errorf("histograms: run %d/%d, cohorts %d/%d", res.Hist.Count(), res.Admitted.Count(), hist, admitted)
	}
	want := counts{Requests: 9, Errors: 3, Mismatches: 1, Shed: 1, ShedServer: 2, Timeouts: 1, Degraded: 1}
	if res.counts != want {
		t.Errorf("run counts %+v, want %+v", res.counts, want)
	}
}
