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
	// Retry-After header) before taking its next event, capped at
	// RetryAfterCap (default 1s). Open-loop runs ignore it — an
	// open-loop harness models clients that do not cooperate.
	HonorRetryAfter bool
	RetryAfterCap   time.Duration
	// Observer, when set, sees every completed request: the worker index
	// (-1 open-loop), the event, the status (0 = transport error) and
	// the response body. Must be safe for concurrent calls across
	// workers; calls within one worker are sequential.
	Observer func(worker int, ev *Event, status int, body []byte)
}

// CohortResult aggregates one cohort's outcomes.
type CohortResult struct {
	Requests   uint64    // completed requests (sheds excluded)
	Errors     uint64    // transport errors + unexpected >= 400 statuses
	Mismatches uint64    // status/digest deviations from the recorded trace
	Shed       uint64    // open-loop arrivals dropped at the in-flight cap
	ShedServer uint64    // 503s: requests the server shed under overload
	Timeouts   uint64    // 504s: requests that ran out of deadline server-side
	Degraded   uint64    // 2xx responses annotated "degraded": true (brownout)
	Hist       *obs.Hist // all completed requests, sheds and timeouts included
	Admitted   *obs.Hist // successful (2xx) requests only — the goodput latency
}

// RunResult is the measurement of one schedule execution.
type RunResult struct {
	Duration   time.Duration
	Requests   uint64
	Errors     uint64
	Mismatches uint64
	Shed       uint64
	ShedServer uint64 // server-side 503 sheds (see CohortResult)
	Timeouts   uint64 // server-side 504 deadline expirations
	Degraded   uint64 // brownout-annotated 2xx responses
	Overall    *obs.Hist
	Admitted   *obs.Hist // successful (2xx) requests only
	Cohorts    map[string]*CohortResult
	// MetricsBefore/MetricsAfter are /metrics scrapes bracketing the
	// run (nil when the target exposes none); report.go derives cache
	// hit rates from the deltas.
	MetricsBefore, MetricsAfter map[string]float64
	// MismatchDetails carries the first few mismatch descriptions for
	// actionable failure output.
	MismatchDetails []string
}

// ErrorRate returns (errors + shed) over scheduled arrivals.
func (r *RunResult) ErrorRate() float64 {
	total := r.Requests + r.Shed
	if total == 0 {
		return 0
	}
	return float64(r.Errors+r.Shed) / float64(total)
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
	overall  *obs.Hist
	admitted *obs.Hist
	cohorts  map[string]*cohortCounters

	requests, errors, mismatches, shed     atomic.Uint64
	shedServer, timeouts, degradedResponse atomic.Uint64

	mu     sync.Mutex
	detail []string
}

type cohortCounters struct {
	requests, errors, mismatches, shed     atomic.Uint64
	shedServer, timeouts, degradedResponse atomic.Uint64
	hist                                   *obs.Hist
	admitted                               *obs.Hist
}

// Run executes the events of a trace against the target and returns the
// measurement. Events are not mutated unless opts.Record is set.
func Run(t Target, events []Event, opts RunOptions) (*RunResult, error) {
	if opts.MaxInFlight == 0 {
		opts.MaxInFlight = 1024
	}
	if opts.Record {
		opts.Concurrency = 1
	}
	if opts.RetryAfterCap == 0 {
		opts.RetryAfterCap = time.Second
	}
	st := &runState{target: t, opts: opts, overall: obs.NewHist(), admitted: obs.NewHist(), cohorts: map[string]*cohortCounters{}}
	for i := range events {
		if _, ok := st.cohorts[events[i].Cohort]; !ok {
			st.cohorts[events[i].Cohort] = &cohortCounters{hist: obs.NewHist(), admitted: obs.NewHist()}
		}
	}

	before, _ := ScrapeMetrics(t)
	start := time.Now()
	if opts.Concurrency > 0 {
		runClosed(st, events)
	} else {
		runOpen(st, events)
	}
	elapsed := time.Since(start)
	after, _ := ScrapeMetrics(t)

	res := &RunResult{
		Duration:      elapsed,
		Requests:      st.requests.Load(),
		Errors:        st.errors.Load(),
		Mismatches:    st.mismatches.Load(),
		Shed:          st.shed.Load(),
		ShedServer:    st.shedServer.Load(),
		Timeouts:      st.timeouts.Load(),
		Degraded:      st.degradedResponse.Load(),
		Overall:       st.overall,
		Admitted:      st.admitted,
		Cohorts:       make(map[string]*CohortResult, len(st.cohorts)),
		MetricsBefore: before,
		MetricsAfter:  after,
	}
	for name, c := range st.cohorts {
		res.Cohorts[name] = &CohortResult{
			Requests:   c.requests.Load(),
			Errors:     c.errors.Load(),
			Mismatches: c.mismatches.Load(),
			Shed:       c.shed.Load(),
			ShedServer: c.shedServer.Load(),
			Timeouts:   c.timeouts.Load(),
			Degraded:   c.degradedResponse.Load(),
			Hist:       c.hist,
			Admitted:   c.admitted,
		}
	}
	st.mu.Lock()
	res.MismatchDetails = st.detail
	st.mu.Unlock()
	return res, nil
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
			st.shed.Add(1)
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
		c.hist.Observe(time.Since(t0))
		st.overall.Observe(time.Since(t0))
		st.fail(worker, ev, fmt.Sprintf("%s %s: %v", method, ev.Path, err))
		return 0
	}
	respBody, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	resp.Body.Close()
	lat := time.Since(t0)
	c.hist.Observe(lat)
	st.overall.Observe(lat)
	st.requests.Add(1)
	c.requests.Add(1)

	status := resp.StatusCode
	var backoff time.Duration
	switch {
	case status == http.StatusServiceUnavailable:
		st.shedServer.Add(1)
		c.shedServer.Add(1)
		backoff = retryAfter(resp, respBody, st.opts.RetryAfterCap)
	case status == http.StatusGatewayTimeout:
		st.timeouts.Add(1)
		c.timeouts.Add(1)
	case status < 400:
		st.admitted.Observe(lat)
		c.admitted.Observe(lat)
		if bodyDegraded(respBody) {
			st.degradedResponse.Add(1)
			c.degradedResponse.Add(1)
		}
	}
	if st.opts.Record {
		ev.ExpectStatus = status
		ev.Digest = Digest(ev.Cohort, status, respBody)
	} else {
		unexpected := status >= 400 && (ev.ExpectStatus == 0 || status != ev.ExpectStatus)
		if unexpected {
			st.errors.Add(1)
			c.errors.Add(1)
		}
		if st.opts.CheckDigests {
			if ev.ExpectStatus != 0 && status != ev.ExpectStatus {
				st.mismatch(c, "%s %s: status %d, trace expects %d", method, ev.Path, status, ev.ExpectStatus)
			} else if ev.Digest != "" {
				if got := Digest(ev.Cohort, status, respBody); got != ev.Digest {
					st.mismatch(c, "%s %s: digest %s, trace expects %s", method, ev.Path, got, ev.Digest)
				}
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
	st.requests.Add(1)
	c.requests.Add(1)
	st.errors.Add(1)
	c.errors.Add(1)
	st.note(msg)
	if st.opts.Observer != nil {
		st.opts.Observer(worker, ev, 0, nil)
	}
}

func (st *runState) mismatch(c *cohortCounters, format string, args ...any) {
	st.mismatches.Add(1)
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

// ScrapeMetrics fetches and parses the target's Prometheus text
// exposition into a flat name{labels} → value map. A target without
// /metrics returns an error (callers treat the scrape as optional).
func ScrapeMetrics(t Target) (map[string]float64, error) {
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(t.BaseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: /metrics returned %s", resp.Status)
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
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		out[name] = f
	}
	return out, sc.Err()
}
