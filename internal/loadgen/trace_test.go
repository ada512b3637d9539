package loadgen

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"hinet/internal/obs"
)

// TestTraceRoundTrip: write → parse reproduces header and events, and a
// second write is byte-identical.
func TestTraceRoundTrip(t *testing.T) {
	tr := &Trace{
		Header: Header{Version: 1, Seed: 9, Arrival: ArrivalPoisson, Rate: 50, DurationUS: 2_000_000, Requests: 3},
		Events: []Event{
			{OffsetUS: 0, Cohort: CohortStats, Path: "/v1/stats", ExpectStatus: 200},
			{OffsetUS: 1500, Cohort: CohortPathSim, Path: "/v1/pathsim/topk?id=3&k=5", ExpectStatus: 200, Digest: "abc123"},
			{OffsetUS: 2500, Cohort: CohortIngest, Method: "POST", Path: "/v1/ingest", Body: `{"deltas":[]}`, ExpectStatus: 200},
		},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	got, err := ParseTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if got.Header != tr.Header {
		t.Fatalf("header round-trip: got %+v want %+v", got.Header, tr.Header)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("event count: got %d want %d", len(got.Events), len(tr.Events))
	}
	for i := range got.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got.Events[i], tr.Events[i])
		}
	}
	var buf2 bytes.Buffer
	if err := WriteTrace(&buf2, got); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("write → parse → write is not byte-stable")
	}
}

// TestParseTraceSkipsCommentsAndBlanks: operators annotate traces.
func TestParseTraceSkipsCommentsAndBlanks(t *testing.T) {
	in := "# recorded against v5\n\n" +
		`{"hinet_trace":1,"seed":3}` + "\n" +
		"# the hot query\n" +
		`{"offset_us":10,"cohort":"stats","path":"/v1/stats"}` + "\n"
	tr, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if tr.Header.Seed != 3 || len(tr.Events) != 1 {
		t.Fatalf("got header %+v, %d events", tr.Header, len(tr.Events))
	}
}

// TestParseTraceErrors: strictness is the point — every malformed line
// is an error naming its line number.
func TestParseTraceErrors(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"unknown field", `{"offset_us":1,"cohort":"stats","path":"/v1/stats","wat":1}`, "line 1"},
		{"bad method", `{"offset_us":1,"cohort":"stats","method":"DELETE","path":"/v1/stats"}`, "method"},
		{"unrooted path", `{"offset_us":1,"cohort":"stats","path":"v1/stats"}`, "rooted"},
		{"negative offset", `{"offset_us":-5,"cohort":"stats","path":"/v1/stats"}`, "offset"},
		{"bad status", `{"offset_us":1,"cohort":"stats","path":"/v1/stats","expect_status":9999}`, "expect_status"},
		{"no cohort", `{"offset_us":1,"path":"/v1/stats"}`, "cohort"},
		{"bad header version", `{"hinet_trace":2}`, "version"},
		{"header junk", `{"hinet_trace":1,"wat":true}`, "header"},
		{"not json", `offset_us=1`, "line 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTrace(strings.NewReader(tc.in + "\n"))
			if err == nil {
				t.Fatalf("accepted %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestDigestStability: digests ignore volatile values but move when the
// response shape or a whitelisted stable value changes.
func TestDigestStability(t *testing.T) {
	base := []byte(`{"path":"A-P-V-P-A","k":5,"epoch":3,"query":{"id":7,"name":"a"},"results":[{"id":1,"score":0.5},{"id":2,"score":0.25}]}`)
	sameShape := []byte(`{"path":"A-P-V-P-A","k":5,"epoch":9,"query":{"id":7,"name":"a"},"results":[{"id":1,"score":0.123},{"id":2,"score":0.9}]}`)
	otherIDs := []byte(`{"path":"A-P-V-P-A","k":5,"epoch":3,"query":{"id":7,"name":"a"},"results":[{"id":4,"score":0.5},{"id":2,"score":0.25}]}`)
	renamed := []byte(`{"path":"A-P-V-P-A","k":5,"epoch":3,"query":{"id":7,"name":"a"},"results":[{"ident":1,"score":0.5},{"ident":2,"score":0.25}]}`)

	d := Digest(CohortPathSim, 200, base)
	if got := Digest(CohortPathSim, 200, sameShape); got != d {
		t.Error("digest moved on volatile-only change (epoch/scores)")
	}
	if got := Digest(CohortPathSim, 200, otherIDs); got == d {
		t.Error("digest ignored a result-id change")
	}
	if got := Digest(CohortPathSim, 200, renamed); got == d {
		t.Error("digest ignored a field rename")
	}
	if got := Digest(CohortPathSim, 503, base); got == d {
		t.Error("digest ignored the status code")
	}
	if Digest(CohortStats, 200, []byte("not json")) == "" {
		t.Error("non-JSON body must still digest")
	}
}

// TestHistQuantiles sanity-checks the log-bucketed histogram against a
// known distribution.
func TestHistQuantiles(t *testing.T) {
	h := obs.NewHist()
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must read zero")
	}
	// 1..1000 ms, uniform.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Min() != time.Millisecond || h.Max() != time.Second {
		t.Fatalf("min/max: %v/%v", h.Min(), h.Max())
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Millisecond}, {0.9, 900 * time.Millisecond}, {0.99, 990 * time.Millisecond}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if rel := (got.Seconds() - c.want.Seconds()) / c.want.Seconds(); rel < -0.08 || rel > 0.08 {
			t.Errorf("q%.2f: got %v, want %v ±8%%", c.q, got, c.want)
		}
	}
	if h.Quantile(1) != time.Second {
		t.Errorf("q1 must clamp to exact max, got %v", h.Quantile(1))
	}
	if h.Quantile(0) != time.Millisecond {
		t.Errorf("q0 must clamp to exact min, got %v", h.Quantile(0))
	}
}

// TestFindKnee: the knee is the first failing offered rate; capacity is
// the achieved throughput of the last passing step.
func TestFindKnee(t *testing.T) {
	steps := []SweepStep{
		{TargetRPS: 100, AchievedRPS: 99, Pass: true},
		{TargetRPS: 200, AchievedRPS: 197, Pass: true},
		{TargetRPS: 400, AchievedRPS: 260, Pass: false, Violation: "p99 900ms exceeds SLO 250ms"},
	}
	knee, capacity := findKnee(steps)
	if knee != 400 || capacity != 197 {
		t.Fatalf("knee %g capacity %g, want 400/197", knee, capacity)
	}
	knee, capacity = findKnee(steps[:2])
	if knee != 0 || capacity != 197 {
		t.Fatalf("no-knee case: got %g/%g, want 0/197", knee, capacity)
	}
	if k, c := findKnee(nil); k != 0 || c != 0 {
		t.Fatalf("empty sweep: got %g/%g", k, c)
	}
}
