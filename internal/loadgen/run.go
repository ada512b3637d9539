// Executing a schedule against a live server: open-loop (honoring the
// scheduled offsets, with a bounded in-flight cap so an overloaded
// target sheds instead of ballooning goroutines), closed-loop (a fixed
// worker fleet draining the schedule in order), and sequential record
// mode (capture status + stable digest per event for later replay).
// Only measurement uses the wall clock; the schedule itself never does.

package loadgen

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hinet/internal/obs"
)

// Target is the server under load: a base URL ("http://127.0.0.1:port")
// and the client used to reach it.
type Target struct {
	BaseURL string
	Client  *http.Client
}

// NewTarget builds a target with a connection pool sized for the
// harness's concurrency.
func NewTarget(baseURL string) Target {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 512
	tr.MaxIdleConnsPerHost = 512
	return Target{
		BaseURL: strings.TrimRight(baseURL, "/"),
		Client:  &http.Client{Transport: tr, Timeout: 30 * time.Second},
	}
}

// RunOptions configures one execution of a schedule.
type RunOptions struct {
	// Concurrency > 0 runs closed-loop with that many workers in trace
	// order; 0 runs open-loop honoring event offsets.
	Concurrency int
	// MaxInFlight caps concurrent open-loop requests (default 1024);
	// arrivals beyond the cap are shed and counted, which is itself a
	// saturation signal.
	MaxInFlight int
	// CheckDigests compares observed status/digest against recorded
	// expectations and counts mismatches.
	CheckDigests bool
	// Record runs the schedule sequentially and writes the observed
	// status and digest back into each event (implies Concurrency 1).
	Record bool
	// HonorRetryAfter makes closed-loop workers back off after a 503:
	// the worker sleeps for the server's retry_after_ms hint (or the
	// Retry-After header), capped at one second, before taking its
	// next event. Open-loop runs ignore it — an open-loop harness
	// models clients that do not cooperate.
	HonorRetryAfter bool
	// Observer, when set, sees every completed request: the worker index
	// (-1 open-loop), the event, the status (0 = transport error) and
	// the response body. Must be safe for concurrent calls across
	// workers; calls within one worker are sequential.
	Observer func(worker int, ev *Event, status int, body []byte)
}

// retryAfterCap bounds an honored backoff hint.
const retryAfterCap = time.Second

// counts is one tally of outcomes, a cohort's or a whole run's. Report
// and EndpointReport embed it, so its fields are their JSON keys.
type counts struct {
	Requests   uint64 `json:"requests"`              // completed requests (sheds excluded)
	Errors     uint64 `json:"errors"`                // transport errors + unexpected >= 400 statuses
	Mismatches uint64 `json:"mismatches,omitempty"`  // status/digest deviations from the recorded trace
	Shed       uint64 `json:"shed,omitempty"`        // open-loop arrivals dropped at the in-flight cap
	ShedServer uint64 `json:"shed_server,omitempty"` // 503s: requests the server shed under overload
	Timeouts   uint64 `json:"timeouts,omitempty"`    // 504s: requests that ran out of deadline server-side
	Degraded   uint64 `json:"degraded,omitempty"`    // 2xx responses annotated "degraded": true (brownout)
}

// ErrorRate returns (errors + shed) over scheduled arrivals.
func (c counts) ErrorRate() float64 {
	total := c.Requests + c.Shed
	if total == 0 {
		return 0
	}
	return float64(c.Errors+c.Shed) / float64(total)
}

func (c *counts) add(o counts) {
	c.Requests += o.Requests
	c.Errors += o.Errors
	c.Mismatches += o.Mismatches
	c.Shed += o.Shed
	c.ShedServer += o.ShedServer
	c.Timeouts += o.Timeouts
	c.Degraded += o.Degraded
}

// CohortResult is one cohort's measurement.
type CohortResult struct {
	counts
	Hist     *obs.Hist // all completed requests, sheds and timeouts included
	Admitted *obs.Hist // successful (2xx) requests only — the goodput latency
}

// RunResult is the measurement of one schedule execution. Its counts
// are the sums of its cohorts'; its histograms see every request.
type RunResult struct {
	CohortResult
	Duration time.Duration
	Cohorts  map[string]*CohortResult
	// MetricsBefore/MetricsAfter are /metrics scrapes bracketing the
	// run (nil when the target exposes none); report.go derives cache
	// hit rates from the deltas.
	MetricsBefore, MetricsAfter map[string]float64
	// MismatchDetails carries the first few mismatch descriptions for
	// actionable failure output.
	MismatchDetails []string
}

// ThroughputRPS returns completed requests per second of run time.
func (r *RunResult) ThroughputRPS() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Duration.Seconds()
}

// runState is the mutable half of a run, shared by workers.
type runState struct {
	target   Target
	opts     RunOptions
	hist     *obs.Hist // the run's, observed beside each cohort's
	admitted *obs.Hist
	cohorts  map[string]*tally

	mu     sync.Mutex
	detail []string
}

// tally is one cohort's live counts: the only place an outcome is
// counted.
type tally struct {
	requests, errors, mismatches, shed atomic.Uint64
	shedServer, timeouts, degraded     atomic.Uint64
	hist, admitted                     *obs.Hist
}

func (t *tally) result() *CohortResult {
	return &CohortResult{counts: counts{
		Requests:   t.requests.Load(),
		Errors:     t.errors.Load(),
		Mismatches: t.mismatches.Load(),
		Shed:       t.shed.Load(),
		ShedServer: t.shedServer.Load(),
		Timeouts:   t.timeouts.Load(),
		Degraded:   t.degraded.Load(),
	}, Hist: t.hist, Admitted: t.admitted}
}

// Run executes the events of a trace against the target and returns the
// measurement. Events are not mutated unless opts.Record is set.
func Run(t Target, events []Event, opts RunOptions) *RunResult {
	if opts.MaxInFlight == 0 {
		opts.MaxInFlight = 1024
	}
	if opts.Record {
		opts.Concurrency = 1
	}
	st := &runState{target: t, opts: opts, hist: obs.NewHist(), admitted: obs.NewHist(), cohorts: map[string]*tally{}}
	for i := range events {
		if st.cohorts[events[i].Cohort] == nil {
			st.cohorts[events[i].Cohort] = &tally{hist: obs.NewHist(), admitted: obs.NewHist()}
		}
	}

	before := scrapeMetrics(t)
	start := time.Now()
	if opts.Concurrency > 0 {
		runClosed(st, events)
	} else {
		runOpen(st, events)
	}
	res := &RunResult{Duration: time.Since(start), Cohorts: make(map[string]*CohortResult, len(st.cohorts))}
	res.MetricsBefore, res.MetricsAfter = before, scrapeMetrics(t)
	res.Hist, res.Admitted = st.hist, st.admitted
	for name, c := range st.cohorts {
		res.Cohorts[name] = c.result()
		res.add(res.Cohorts[name].counts)
	}
	res.MismatchDetails = st.detail // every worker has returned
	return res
}

// runClosed drains the schedule in order through a fixed worker fleet.
func runClosed(st *runState, events []Event) {
	ch := make(chan *Event)
	var wg sync.WaitGroup
	for w := 0; w < st.opts.Concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for ev := range ch {
				if backoff := st.do(worker, ev); backoff > 0 && st.opts.HonorRetryAfter {
					time.Sleep(backoff)
				}
			}
		}(w)
	}
	for i := range events {
		ch <- &events[i]
	}
	close(ch)
	wg.Wait()
}

// runOpen issues each event at its scheduled offset, shedding arrivals
// when MaxInFlight requests are already outstanding.
func runOpen(st *runState, events []Event) {
	sem := make(chan struct{}, st.opts.MaxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range events {
		ev := &events[i]
		due := time.Duration(ev.OffsetUS) * time.Microsecond
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() { <-sem; wg.Done() }()
				st.do(-1, ev)
			}()
		default:
			st.cohorts[ev.Cohort].shed.Add(1)
		}
	}
	wg.Wait()
}

// do issues one request, records its latency, and checks expectations.
// The return value is the server's backoff hint (zero unless the
// request was shed with a Retry-After); closed-loop workers honor it
// when opts.HonorRetryAfter is set.
func (st *runState) do(worker int, ev *Event) time.Duration {
	method := ev.Method
	if method == "" {
		method = http.MethodGet
	}
	var body io.Reader
	if ev.Body != "" {
		body = strings.NewReader(ev.Body)
	}
	req, err := http.NewRequest(method, st.target.BaseURL+ev.Path, body)
	if err != nil {
		st.fail(worker, ev, fmt.Sprintf("build request %s: %v", ev.Path, err))
		return 0
	}
	if ev.Body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	c := st.cohorts[ev.Cohort]
	t0 := time.Now()
	resp, err := st.target.Client.Do(req)
	if err != nil {
		lat := time.Since(t0)
		c.hist.Observe(lat)
		st.hist.Observe(lat)
		st.fail(worker, ev, fmt.Sprintf("%s %s: %v", method, ev.Path, err))
		return 0
	}
	respBody, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	resp.Body.Close()
	lat := time.Since(t0)
	c.hist.Observe(lat)
	st.hist.Observe(lat)
	c.requests.Add(1)

	status := resp.StatusCode
	var backoff time.Duration
	switch {
	case status == http.StatusServiceUnavailable:
		c.shedServer.Add(1)
		backoff = retryAfter(resp, respBody, retryAfterCap)
	case status == http.StatusGatewayTimeout:
		c.timeouts.Add(1)
	case status < 400:
		st.admitted.Observe(lat)
		c.admitted.Observe(lat)
		if bodyDegraded(respBody) {
			c.degraded.Add(1)
		}
	}
	// A recorded run counts errors like any other: the trace must not
	// turn a failing answer into an expected one unnoticed.
	if status >= 400 && (ev.ExpectStatus == 0 || status != ev.ExpectStatus) {
		c.errors.Add(1)
	}
	if st.opts.Record {
		ev.ExpectStatus = status
		ev.Digest = Digest(ev.Cohort, status, respBody)
	} else if st.opts.CheckDigests {
		if ev.ExpectStatus != 0 && status != ev.ExpectStatus {
			st.mismatch(c, "%s %s: status %d, trace expects %d", method, ev.Path, status, ev.ExpectStatus)
		} else if ev.Digest != "" {
			if got := Digest(ev.Cohort, status, respBody); got != ev.Digest {
				st.mismatch(c, "%s %s: digest %s, trace expects %s", method, ev.Path, got, ev.Digest)
			}
		}
	}
	if st.opts.Observer != nil {
		st.opts.Observer(worker, ev, status, respBody)
	}
	return backoff
}

// retryAfter extracts the server's backoff hint from a shed response:
// the JSON body's retry_after_ms field wins (millisecond resolution),
// falling back to the Retry-After header (whole seconds), capped.
func retryAfter(resp *http.Response, body []byte, ceiling time.Duration) time.Duration {
	var d time.Duration
	var hint struct {
		RetryAfterMS int `json:"retry_after_ms"`
	}
	if json.Unmarshal(body, &hint) == nil && hint.RetryAfterMS > 0 {
		d = time.Duration(hint.RetryAfterMS) * time.Millisecond
	} else if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			d = time.Duration(secs) * time.Second
		}
	}
	if d > ceiling {
		d = ceiling
	}
	return d
}

// bodyDegraded reports whether a 2xx JSON body carries the brownout
// annotation. A substring probe (both compact and indented encodings)
// keeps the hot path free of a full JSON parse.
func bodyDegraded(body []byte) bool {
	return bytes.Contains(body, []byte(`"degraded": true`)) ||
		bytes.Contains(body, []byte(`"degraded":true`))
}

// fail records a transport-level failure (no HTTP status).
func (st *runState) fail(worker int, ev *Event, msg string) {
	c := st.cohorts[ev.Cohort]
	c.requests.Add(1)
	c.errors.Add(1)
	st.note(msg)
	if st.opts.Observer != nil {
		st.opts.Observer(worker, ev, 0, nil)
	}
}

func (st *runState) mismatch(c *tally, format string, args ...any) {
	c.mismatches.Add(1)
	st.note(fmt.Sprintf(format, args...))
}

// note keeps the first few failure descriptions for reporting.
func (st *runState) note(msg string) {
	st.mu.Lock()
	if len(st.detail) < 10 {
		st.detail = append(st.detail, msg)
	}
	st.mu.Unlock()
}

// scrapeMetrics fetches and parses the target's Prometheus text
// exposition into a flat name{labels} → value map; nil when the target
// has no /metrics (the report then leaves out what it derives from it).
func scrapeMetrics(t Target) map[string]float64 {
	resp, err := t.Client.Get(t.BaseURL + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(io.LimitReader(resp.Body, 4<<20))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = f
		}
	}
	return out
}
