package loadgen

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"hinet/internal/obs"
)

// stageSeries fabricates one stage histogram series in scrape-map form:
// cumulative counts over the given (le seconds, cum) pairs plus +Inf.
func stageSeries(m map[string]float64, endpoint, stage string, bounds []float64, cums []float64, total float64) {
	for i, le := range bounds {
		key := fmt.Sprintf("hinet_stage_duration_seconds_bucket{endpoint=%q,stage=%q,le=%q}",
			endpoint, stage, fmt.Sprintf("%g", le))
		m[key] = cums[i]
	}
	m[fmt.Sprintf("hinet_stage_duration_seconds_bucket{endpoint=%q,stage=%q,le=\"+Inf\"}", endpoint, stage)] = total
}

func TestStageLatencies(t *testing.T) {
	bounds := []float64{0.001, 0.002, 0.004}
	before := map[string]float64{}
	after := map[string]float64{}
	// kernel: 90 obs ≤ 1ms, 9 more ≤ 2ms, 1 more ≤ 4ms → p50 = 1ms,
	// p99 = 2ms (rank 99 lands in the ≤2ms bucket: cum 99 ≥ 99).
	stageSeries(after, "/v1/pathsim/topk", "kernel", bounds, []float64{90, 99, 100}, 100)
	// render existed before the window and saw no new traffic → dropped.
	stageSeries(before, "/v1/pathsim/topk", "render", bounds, []float64{5, 5, 5}, 5)
	stageSeries(after, "/v1/pathsim/topk", "render", bounds, []float64{5, 5, 5}, 5)
	// params on another endpoint: all 10 obs beyond the widest bound →
	// quantiles clamp to it.
	stageSeries(after, "/v1/rank", "params", bounds, []float64{0, 0, 0}, 10)

	got := stageLatencies(before, after)
	if len(got) != 2 {
		t.Fatalf("stages = %+v, want 2 entries", got)
	}
	// Sorted by endpoint then stage: /v1/pathsim/topk before /v1/rank.
	k := got[0]
	if k.Endpoint != "/v1/pathsim/topk" || k.Stage != "kernel" || k.Count != 100 {
		t.Fatalf("first entry = %+v", k)
	}
	if k.P50US != 1000 || k.P99US != 2000 {
		t.Errorf("kernel quantiles = p50 %d p99 %d, want 1000/2000", k.P50US, k.P99US)
	}
	p := got[1]
	if p.Endpoint != "/v1/rank" || p.Stage != "params" || p.Count != 10 {
		t.Fatalf("second entry = %+v", p)
	}
	if p.P50US != 4000 || p.P99US != 4000 {
		t.Errorf("beyond-range quantiles = p50 %d p99 %d, want clamp to 4000", p.P50US, p.P99US)
	}

	if s := stageLatencies(nil, nil); s != nil && len(s) != 0 {
		t.Fatalf("nil scrapes produced stages: %+v", s)
	}
}

const reportGoldenPath = "testdata/report_golden.json"

// hist returns a histogram holding one observation per latency, in µs.
func hist(us ...int) *obs.Hist {
	h := obs.NewHist()
	for _, u := range us {
		h.Observe(time.Duration(u) * time.Microsecond)
	}
	return h
}

// fabricatedRun is a run of three cohorts with every outcome counted at
// least once; the run's counts are its cohorts' sums, as Run makes them.
func fabricatedRun() *RunResult {
	ps := &CohortResult{Hist: hist(80, 95, 110, 130, 400, 900, 2500, 6000), Admitted: hist(80, 95, 110, 130, 400)}
	ps.Requests, ps.Errors, ps.Mismatches, ps.ShedServer, ps.Degraded = 8, 1, 1, 2, 1
	ing := &CohortResult{Hist: hist(700, 950, 30000), Admitted: hist(700, 950)}
	ing.Requests, ing.Shed, ing.Timeouts = 3, 1, 1
	st := &CohortResult{Hist: hist(250, 300), Admitted: obs.NewHist()}
	st.Requests = 2
	res := &RunResult{Duration: 2500 * time.Millisecond,
		Cohorts: map[string]*CohortResult{CohortPathSim: ps, CohortIngest: ing, CohortStats: st}}
	res.Hist = hist(80, 95, 110, 130, 400, 900, 2500, 6000, 700, 950, 30000, 250, 300)
	res.Admitted = hist(80, 95, 110, 130, 400, 700, 950)
	for _, c := range res.Cohorts {
		res.Requests += c.Requests
		res.Errors += c.Errors
		res.Mismatches += c.Mismatches
		res.Shed += c.Shed
		res.ShedServer += c.ShedServer
		res.Timeouts += c.Timeouts
		res.Degraded += c.Degraded
	}
	bounds := []float64{0.0001, 0.001, 0.01}
	res.MetricsBefore = map[string]float64{"hinet_cache_hits_total": 10, "hinet_cache_misses_total": 4}
	res.MetricsAfter = map[string]float64{"hinet_cache_hits_total": 16, "hinet_cache_misses_total": 6}
	stageSeries(res.MetricsBefore, "/v1/pathsim/topk", "kernel", bounds, []float64{1, 2, 2}, 2)
	stageSeries(res.MetricsAfter, "/v1/pathsim/topk", "kernel", bounds, []float64{5, 9, 10}, 10)
	stageSeries(res.MetricsAfter, "/v1/ingest", "apply", bounds, []float64{0, 2, 3}, 3)
	return res
}

// TestReportGolden pins BuildReport's JSON byte for byte over a
// fabricated run with endpoints, server stages and a sweep. The context
// block (host facts) is left out. Regenerate with
// `go test ./internal/loadgen -run TestReportGolden -update`.
func TestReportGolden(t *testing.T) {
	rep := BuildReport(goldenConfig(), fabricatedRun(), DefaultSLO())
	rep.Context = nil
	loose := SLO{P99: 5 * time.Millisecond, MaxErrorRate: 0.3}
	sw := &SweepReport{}
	for i, rate := range []float64{50, 100, 200} {
		r := fabricatedRun()
		r.Duration = time.Duration(i+1) * time.Second
		sw.Steps = append(sw.Steps, evalStep(rate, r, loose))
		loose.P99 /= 4 // the third step's admitted p99 breaks it
	}
	sw.KneeRPS, sw.CapacityRPS = findKnee(sw.Steps)
	rep.Sweep = sw

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(reportGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(reportGoldenPath)
	if err != nil {
		t.Fatalf("read golden report (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report JSON differs from %s:\n%s", reportGoldenPath, buf.Bytes())
	}
}
