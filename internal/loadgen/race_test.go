package loadgen

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"hinet/internal/serve"
)

// TestSaturationRace drives a saturated mixed workload — Zipf-skewed
// queries (cached and uncached), ingest batches, and explicit rebuilds —
// at a concurrency far above the server's admission capacity, and
// checks the serving tier's consistency contract under overload:
//
//   - snapshot epochs observed by any one worker never go backwards
//     (each worker's requests are sequential, so a regression would mean
//     a stale snapshot — or a cache entry from a future epoch — leaked
//     across a swap);
//   - the final epoch equals the initial one plus exactly the mutations
//     the server accepted (no lost or double-counted swaps);
//   - overload is shed as prompt 503s, never hangs or other statuses.
//
// Run under -race this is the PR's concurrency regression test for the
// ingest/rebuild/query triangle.
func TestSaturationRace(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation run")
	}
	target := startTestServer(t, serve.Options{
		MaxConcurrent: 1,
		AdmissionWait: -1, // fail fast: saturation must answer, not queue
		CacheCapacity: 64, // small enough that evictions keep some queries uncached
	})

	ks := testKeyspace(t, nil)
	cfg := Config{
		Seed:     11,
		Arrival:  ArrivalClosed,
		Requests: 300,
		Mix:      Mix{PathSim: 60, Ingest: 15, Stats: 25},
	}
	tr, err := Generate(cfg, ks)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// Splice explicit rebuilds into the schedule: full snapshot swaps
	// racing the incremental ingest path and the query cohorts.
	events := make([]Event, 0, len(tr.Events)+len(tr.Events)/50)
	for i, ev := range tr.Events {
		if i > 0 && i%50 == 0 {
			events = append(events, Event{
				Cohort: "rebuild", Method: "POST", Path: "/v1/rebuild", ExpectStatus: 200,
			})
		}
		events = append(events, ev)
	}

	type workerState struct {
		lastEpoch float64
	}
	var (
		mu        sync.Mutex
		workers   = map[int]*workerState{}
		mutations int
		badStatus []string
		regressed []string
	)
	obs := func(worker int, ev *Event, status int, body []byte) {
		mu.Lock()
		defer mu.Unlock()
		switch status {
		case 200, 503:
		default:
			if len(badStatus) < 5 {
				badStatus = append(badStatus, ev.Path+": status "+strconv.Itoa(status))
			}
			return
		}
		if status != 200 {
			return
		}
		if ev.Cohort == CohortIngest || ev.Cohort == "rebuild" {
			mutations++
		}
		var payload struct {
			Epoch *float64 `json:"epoch"`
		}
		if err := json.Unmarshal(body, &payload); err != nil || payload.Epoch == nil {
			return
		}
		ws := workers[worker]
		if ws == nil {
			ws = &workerState{}
			workers[worker] = ws
		}
		if *payload.Epoch < ws.lastEpoch && len(regressed) < 5 {
			regressed = append(regressed, fmt.Sprintf("%s: epoch went %g -> %g", ev.Path, ws.lastEpoch, *payload.Epoch))
		}
		if *payload.Epoch > ws.lastEpoch {
			ws.lastEpoch = *payload.Epoch
		}
	}

	start := time.Now()
	res := Run(target, events, RunOptions{Concurrency: 12, Observer: obs})
	elapsed := time.Since(start)

	if len(badStatus) > 0 {
		t.Fatalf("statuses other than 200/503 under saturation: %v", badStatus)
	}
	if len(regressed) > 0 {
		t.Fatalf("per-worker epoch regressions: %v", regressed)
	}
	if res.Requests != uint64(len(events)) {
		t.Fatalf("completed %d of %d requests — something hung or was dropped", res.Requests, len(events))
	}
	// Fail-fast admission with 12 workers contending for 1 slot must
	// shed; if every request succeeded the admission path wasn't tested.
	rejected := 0.0
	if res.MetricsAfter != nil {
		rejected = res.MetricsAfter["hinet_admission_rejected_total"]
	}
	if rejected == 0 {
		t.Error("no admission rejections at 12x oversubscription; overload path untested")
	}
	// Rejections must be prompt: with fail-fast admission the whole run
	// should take far less than requests x per-request work.
	if elapsed > 2*time.Minute {
		t.Errorf("saturated run took %v; admission is queueing, not shedding", elapsed)
	}

	// Exact epoch accounting: seed build is epoch 1, and every accepted
	// ingest batch or rebuild bumps it exactly once.
	var stats struct {
		Epoch int `json:"epoch"`
	}
	resp, err := target.Client.Get(target.BaseURL + "/v1/stats")
	if err != nil {
		t.Fatalf("final stats: %v", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	mu.Lock()
	wantEpoch := 1 + mutations
	mu.Unlock()
	if stats.Epoch != wantEpoch {
		t.Fatalf("final epoch %d, want %d (1 + %d accepted mutations)", stats.Epoch, wantEpoch, wantEpoch-1)
	}
}
