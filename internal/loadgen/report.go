// Reporting and capacity planning. The JSON report carries a schema
// tag, a context block (host facts + run parameters), and sorted
// result entries, so downstream tooling can diff two runs entry by
// entry. The saturation sweep steps the offered rate
// geometrically and declares the knee at the first step that violates
// the SLO — capacity is the last rate the server absorbed cleanly.

package loadgen

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// ReportSchema tags serving-load reports.
const ReportSchema = "hinet-serve/1"

// SLO is the service-level objective a run is judged against.
type SLO struct {
	P99          time.Duration // overall p99 latency bound
	MaxErrorRate float64       // errors+shed over arrivals, in [0,1]
}

// DefaultSLO matches the capacity-planning guidance in
// docs/OPERATIONS.md: interactive queries under 250ms at the tail, at
// most 1% failures.
func DefaultSLO() SLO {
	return SLO{P99: 250 * time.Millisecond, MaxErrorRate: 0.01}
}

// Check returns "" when res meets the SLO, else a human-readable
// violation description. The latency bound is judged over admitted
// (2xx) requests when any were recorded: a shed request answers in
// microseconds by design, and a timed-out one is already counted by the
// error-rate bound — folding either into the latency signal would let a
// server "pass" p99 by shedding, or fail it for refusing promptly.
func (s SLO) Check(res *RunResult) string {
	h := res.Overall
	if res.Admitted != nil && res.Admitted.Count() > 0 {
		h = res.Admitted
	}
	if p99 := h.Quantile(0.99); s.P99 > 0 && p99 > s.P99 {
		return fmt.Sprintf("admitted p99 %v exceeds SLO %v", p99.Round(time.Microsecond), s.P99)
	}
	if er := res.ErrorRate(); er > s.MaxErrorRate {
		return fmt.Sprintf("error rate %.2f%% exceeds SLO %.2f%%", er*100, s.MaxErrorRate*100)
	}
	return ""
}

// EndpointReport is the per-cohort slice of a report. Latencies are in
// microseconds to keep the JSON integral and diff-friendly.
type EndpointReport struct {
	Cohort        string  `json:"cohort"`
	Requests      uint64  `json:"requests"`
	Errors        uint64  `json:"errors"`
	Mismatches    uint64  `json:"mismatches,omitempty"`
	Shed          uint64  `json:"shed,omitempty"`
	ShedServer    uint64  `json:"shed_server,omitempty"`
	Timeouts      uint64  `json:"timeouts,omitempty"`
	Degraded      uint64  `json:"degraded,omitempty"`
	MeanUS        int64   `json:"mean_us"`
	P50US         int64   `json:"p50_us"`
	P90US         int64   `json:"p90_us"`
	P99US         int64   `json:"p99_us"`
	P999US        int64   `json:"p999_us"`
	MaxUS         int64   `json:"max_us"`
	AdmittedP99US int64   `json:"admitted_p99_us,omitempty"`
	ErrorRate     float64 `json:"error_rate"`
}

// Report is the JSON document for a single measured run.
type Report struct {
	Schema        string            `json:"schema"`
	Context       map[string]string `json:"context"`
	Requests      uint64            `json:"requests"`
	Errors        uint64            `json:"errors"`
	Mismatch      uint64            `json:"mismatches,omitempty"`
	Shed          uint64            `json:"shed,omitempty"`
	ShedServer    uint64            `json:"shed_server,omitempty"`
	Timeouts      uint64            `json:"timeouts,omitempty"`
	Degraded      uint64            `json:"degraded,omitempty"`
	DurationS     float64           `json:"duration_s"`
	RPS           float64           `json:"throughput_rps"`
	ErrorRate     float64           `json:"error_rate"`
	P50US         int64             `json:"p50_us"`
	P99US         int64             `json:"p99_us"`
	AdmittedP99US int64             `json:"admitted_p99_us,omitempty"`
	CacheHit      float64           `json:"cache_hit_rate"`
	SLO           map[string]any    `json:"slo"`
	Verdict       string            `json:"verdict"` // "pass" | violation text
	Endpoints     []EndpointReport  `json:"endpoints"`
	Stages        []StageLatency    `json:"server_stages,omitempty"`
	Sweep         *SweepReport      `json:"sweep,omitempty"`
}

// us rounds a duration to integral microseconds for report fields.
func us(d time.Duration) int64 { return d.Microseconds() }

// endpointReports flattens per-cohort results, sorted by cohort name
// for deterministic JSON.
func endpointReports(res *RunResult) []EndpointReport {
	out := make([]EndpointReport, 0, len(res.Cohorts))
	for name, c := range res.Cohorts {
		er := EndpointReport{
			Cohort:     name,
			Requests:   c.Requests,
			Errors:     c.Errors,
			Mismatches: c.Mismatches,
			Shed:       c.Shed,
			ShedServer: c.ShedServer,
			Timeouts:   c.Timeouts,
			Degraded:   c.Degraded,
			MeanUS:     us(c.Hist.Mean()),
			P50US:      us(c.Hist.Quantile(0.50)),
			P90US:      us(c.Hist.Quantile(0.90)),
			P99US:      us(c.Hist.Quantile(0.99)),
			P999US:     us(c.Hist.Quantile(0.999)),
			MaxUS:      us(c.Hist.Max()),
		}
		if c.Admitted != nil && c.Admitted.Count() > 0 {
			er.AdmittedP99US = us(c.Admitted.Quantile(0.99))
		}
		if total := c.Requests + c.Shed; total > 0 {
			er.ErrorRate = float64(c.Errors+c.Shed) / float64(total)
		}
		out = append(out, er)
	}
	slices.SortFunc(out, func(a, b EndpointReport) int {
		if a.Cohort < b.Cohort {
			return -1
		}
		if a.Cohort > b.Cohort {
			return 1
		}
		return 0
	})
	return out
}

// cacheHitRate derives the serving cache hit rate over the run window
// from the bracketing /metrics scrapes; -1 when unavailable.
func cacheHitRate(before, after map[string]float64) float64 {
	if before == nil || after == nil {
		return -1
	}
	hits := after["hinet_cache_hits_total"] - before["hinet_cache_hits_total"]
	misses := after["hinet_cache_misses_total"] - before["hinet_cache_misses_total"]
	if hits+misses <= 0 {
		return -1
	}
	return hits / (hits + misses)
}

// StageLatency summarizes one server-side request stage over the run
// window: where the server spent its time, as seen from the tracer's
// hinet_stage_duration_seconds histograms in the bracketing /metrics
// scrapes. Quantiles are bucket upper bounds (octave resolution), in
// microseconds like every other latency column.
type StageLatency struct {
	Endpoint string `json:"endpoint"`
	Stage    string `json:"stage"`
	Count    uint64 `json:"count"`
	P50US    int64  `json:"p50_us"`
	P99US    int64  `json:"p99_us"`
}

// labelVal extracts one label's value from a flat Prometheus label
// list (`endpoint="/v1/rank",stage="params",le="+Inf"`).
func labelVal(labels, name string) (string, bool) {
	marker := name + `="`
	i := strings.Index(labels, marker)
	if i < 0 {
		return "", false
	}
	rest := labels[i+len(marker):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}

// stageLatencies derives per-endpoint-per-stage latency summaries from
// the delta of the bracketing scrapes' stage histogram buckets. Stages
// the run never touched (zero delta) are dropped; nil scrapes yield nil.
func stageLatencies(before, after map[string]float64) []StageLatency {
	const prefix = "hinet_stage_duration_seconds_bucket{"
	type seriesKey struct{ endpoint, stage string }
	type bucket struct{ le, cum float64 }
	acc := map[seriesKey][]bucket{}
	for key, v := range after {
		if !strings.HasPrefix(key, prefix) || !strings.HasSuffix(key, "}") {
			continue
		}
		labels := key[len(prefix) : len(key)-1]
		ep, ok1 := labelVal(labels, "endpoint")
		st, ok2 := labelVal(labels, "stage")
		leStr, ok3 := labelVal(labels, "le")
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		le, err := strconv.ParseFloat(leStr, 64) // "+Inf" parses to +Inf
		if err != nil {
			continue
		}
		k := seriesKey{ep, st}
		acc[k] = append(acc[k], bucket{le, v - before[key]})
	}
	out := make([]StageLatency, 0, len(acc))
	for k, bs := range acc {
		slices.SortFunc(bs, func(a, b bucket) int { return cmp.Compare(a.le, b.le) })
		total := bs[len(bs)-1].cum // the +Inf bucket is the count
		if total <= 0 || len(bs) < 2 {
			continue
		}
		finite := bs[:len(bs)-1]
		quant := func(q float64) int64 {
			rank := q * total
			for _, b := range finite {
				if b.cum >= rank {
					return int64(b.le * 1e6)
				}
			}
			// Off the top of the finite bounds: report the widest one.
			return int64(finite[len(finite)-1].le * 1e6)
		}
		out = append(out, StageLatency{
			Endpoint: k.endpoint,
			Stage:    k.stage,
			Count:    uint64(total),
			P50US:    quant(0.50),
			P99US:    quant(0.99),
		})
	}
	slices.SortFunc(out, func(a, b StageLatency) int {
		if c := cmp.Compare(a.Endpoint, b.Endpoint); c != 0 {
			return c
		}
		return cmp.Compare(a.Stage, b.Stage)
	})
	return out
}

// BuildReport assembles the JSON report for a run. cfg supplies the
// schedule parameters echoed into the context block.
func BuildReport(cfg Config, res *RunResult, slo SLO) *Report {
	verdict := slo.Check(res)
	if verdict == "" {
		verdict = "pass"
	}
	r := &Report{
		Schema: ReportSchema,
		Context: map[string]string{
			"goos":     runtime.GOOS,
			"goarch":   runtime.GOARCH,
			"cpus":     fmt.Sprintf("%d", runtime.NumCPU()),
			"seed":     fmt.Sprintf("%d", cfg.Seed),
			"arrival":  cfg.Arrival,
			"rate":     fmt.Sprintf("%g", cfg.Rate),
			"duration": cfg.Duration.String(),
			"zipf_s":   fmt.Sprintf("%g", cfg.ZipfS),
		},
		Requests:   res.Requests,
		Errors:     res.Errors,
		Mismatch:   res.Mismatches,
		Shed:       res.Shed,
		ShedServer: res.ShedServer,
		Timeouts:   res.Timeouts,
		Degraded:   res.Degraded,
		DurationS:  res.Duration.Seconds(),
		RPS:        res.ThroughputRPS(),
		ErrorRate:  res.ErrorRate(),
		P50US:      us(res.Overall.Quantile(0.50)),
		P99US:      us(res.Overall.Quantile(0.99)),
		CacheHit:   cacheHitRate(res.MetricsBefore, res.MetricsAfter),
		SLO: map[string]any{
			"p99_us":         us(slo.P99),
			"max_error_rate": slo.MaxErrorRate,
		},
		Verdict:   verdict,
		Endpoints: endpointReports(res),
		Stages:    stageLatencies(res.MetricsBefore, res.MetricsAfter),
	}
	if res.Admitted != nil && res.Admitted.Count() > 0 {
		r.AdmittedP99US = us(res.Admitted.Quantile(0.99))
	}
	return r
}

// WriteJSON renders the report with stable formatting.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// --- saturation sweep ------------------------------------------------

// SweepStep is one measured rate step.
type SweepStep struct {
	TargetRPS   float64 `json:"target_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	P50US       int64   `json:"p50_us"`
	P99US       int64   `json:"p99_us"`
	ErrorRate   float64 `json:"error_rate"`
	Shed        uint64  `json:"shed,omitempty"`
	Pass        bool    `json:"pass"`
	Violation   string  `json:"violation,omitempty"`
}

// SweepReport summarizes a stepped-rate saturation sweep.
type SweepReport struct {
	Steps       []SweepStep `json:"steps"`
	KneeRPS     float64     `json:"knee_rps"`     // first offered rate violating the SLO (0: none found)
	CapacityRPS float64     `json:"capacity_rps"` // achieved RPS at the last passing step
}

// evalStep converts a run into a sweep step judged against the SLO.
func evalStep(target float64, res *RunResult, slo SLO) SweepStep {
	violation := slo.Check(res)
	return SweepStep{
		TargetRPS:   target,
		AchievedRPS: res.ThroughputRPS(),
		P50US:       us(res.Overall.Quantile(0.50)),
		P99US:       us(res.Overall.Quantile(0.99)),
		ErrorRate:   res.ErrorRate(),
		Shed:        res.Shed,
		Pass:        violation == "",
		Violation:   violation,
	}
}

// findKnee scans ordered steps for the SLO knee: the first offered
// rate that violates the objective. Capacity is the achieved
// throughput of the last passing step before it.
func findKnee(steps []SweepStep) (knee, capacity float64) {
	for _, s := range steps {
		if !s.Pass {
			return s.TargetRPS, capacity
		}
		capacity = s.AchievedRPS
	}
	return 0, capacity
}

// RunSweep measures the SLO knee: run the base config's mix at
// geometrically increasing offered rates (doubling from cfg.Rate,
// maxSteps steps of stepDur each), stopping early once a step fails.
// Each step regenerates its schedule from the same seed, so the mix
// and key popularity are identical across steps — only the arrival
// intensity changes. progress (optional) is told about each step.
func RunSweep(t Target, cfg Config, ks *Keyspace, slo SLO, maxSteps int, stepDur time.Duration,
	progress func(step SweepStep)) (*SweepReport, error) {
	if maxSteps <= 0 {
		maxSteps = 5
	}
	if stepDur <= 0 {
		stepDur = 5 * time.Second
	}
	sw := &SweepReport{}
	rate := cfg.Rate
	if rate <= 0 {
		rate = 50
	}
	for i := 0; i < maxSteps; i++ {
		stepCfg := cfg
		stepCfg.Rate = rate
		stepCfg.Duration = stepDur
		stepCfg.Requests = 0 // re-derive from rate × duration
		stepCfg.Arrival = ArrivalPoisson
		tr, err := Generate(stepCfg, ks)
		if err != nil {
			return nil, err
		}
		res, err := Run(t, tr.Events, RunOptions{})
		if err != nil {
			return nil, err
		}
		step := evalStep(rate, res, slo)
		sw.Steps = append(sw.Steps, step)
		if progress != nil {
			progress(step)
		}
		if !step.Pass {
			break
		}
		rate *= 2
	}
	sw.KneeRPS, sw.CapacityRPS = findKnee(sw.Steps)
	return sw, nil
}
