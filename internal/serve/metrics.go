// The /metrics exposition. The per-endpoint request counters, latency
// and stage histograms are the obs registry's families, built from the
// endpoint table in New, so the hot path is pure atomics — no locks, no
// map writes. Exposition is Prometheus text format assembled by hand
// (the repo is stdlib-only); the series set is fixed at boot —
// families, their stages and the gauges are all known before the first
// request — so the metric name sequence never varies between scrapes
// (pinned by TestMetricsDeterministicOrder).

package serve

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"hinet/internal/sparse"
)

// writeMetrics renders the Prometheus text exposition for /metrics:
// snapshot identity, per-endpoint request counters and latency
// histograms, per-stage duration histograms from the tracer, cache hit
// rates, and process/pool runtime gauges. Every generation value comes
// from one View, loaded once.
func (s *Server) writeMetrics(w io.Writer) {
	v := s.coord.View()
	fmt.Fprintf(w, "hinet_snapshot_epoch %d\n", v.Epoch)
	fmt.Fprintf(w, "hinet_snapshot_seed %d\n", v.Seed)
	fmt.Fprintf(w, "hinet_snapshot_build_seconds %g\n", v.BuildTime.Seconds())
	types := v.Corpus.Net.Types()
	slices.Sort(types)
	for _, t := range types {
		fmt.Fprintf(w, "hinet_snapshot_objects{type=%q} %d\n", string(t), v.Corpus.Net.Count(t))
	}
	fmt.Fprintf(w, "hinet_pathsim_index_nnz %d\n", v.IndexNNZ)

	// Meta-path engine: materialization-cache effectiveness, how the
	// planner is evaluating products, where the product wall time
	// goes (planned splits vs. Gram factorizations), and how much of
	// it took the patch route (a write that reads 0 patches rebuilt
	// its products cold).
	es := v.Corpus.Net.PathEngine().Stats()
	fmt.Fprintf(w, "hinet_metapath_cache_hits_total %d\n", es.Hits)
	fmt.Fprintf(w, "hinet_metapath_cache_misses_total %d\n", es.Misses)
	fmt.Fprintf(w, "hinet_metapath_cache_entries %d\n", es.Entries)
	fmt.Fprintf(w, "hinet_metapath_products_total %d\n", es.Products)
	fmt.Fprintf(w, "hinet_metapath_gram_products_total %d\n", es.Grams)
	fmt.Fprintf(w, "hinet_metapath_transposes_total %d\n", es.Transposes)
	fmt.Fprintf(w, "hinet_metapath_product_seconds_total %g\n", es.ProductTime.Seconds())
	fmt.Fprintf(w, "hinet_metapath_gram_seconds_total %g\n", es.GramTime.Seconds())
	fmt.Fprintf(w, "hinet_metapath_patches_total %d\n", es.Patches)
	fmt.Fprintf(w, "hinet_metapath_patched_rows_total %d\n", es.PatchedRows)
	fmt.Fprintf(w, "hinet_metapath_patch_seconds_total %g\n", es.PatchTime.Seconds())

	// One family per endpoint, sorted by endpoint, each with its stages
	// sorted — all fixed at boot, so this block's series set is too.
	fams := s.obs.Families()
	for _, f := range fams {
		fmt.Fprintf(w, "hinet_http_requests_total{endpoint=%q} %d\n", f.Name(), f.Requests())
		fmt.Fprintf(w, "hinet_http_errors_total{endpoint=%q} %d\n", f.Name(), f.Errors())
	}
	// Request-duration histograms follow the counters so the flat
	// counter block stays easy to eyeball, then the per-stage duration
	// histograms from the span tracer.
	for _, f := range fams {
		f.Latency().WriteProm(w, "hinet_request_duration_seconds", fmt.Sprintf("endpoint=%q", f.Name()))
	}
	for _, f := range fams {
		for _, stage := range f.Stages() {
			f.Stage(stage).WriteProm(w, "hinet_stage_duration_seconds",
				fmt.Sprintf("endpoint=%q,stage=%q", f.Name(), stage))
		}
	}

	cs := s.cache.Stats()
	fmt.Fprintf(w, "hinet_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "hinet_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "hinet_cache_entries %d\n", cs.Entries)

	fmt.Fprintf(w, "hinet_ingest_batches_total %d\n", s.ing.batches.Load())
	fmt.Fprintf(w, "hinet_ingest_deltas_total %d\n", s.ing.deltas.Load())
	fmt.Fprintf(w, "hinet_ingest_rejected_total %d\n", s.ing.rejected.Load())
	fmt.Fprintf(w, "hinet_ingest_apply_seconds_sum %g\n", time.Duration(s.ing.nanos.Load()).Seconds())

	fmt.Fprintf(w, "hinet_admission_rejected_total %d\n", s.rejAd.Load())

	// Overload protection: the adaptive limiter and brownout state.
	fmt.Fprintf(w, "hinet_admission_limit %d\n", s.adm.Limit())
	fmt.Fprintf(w, "hinet_admission_ceiling %d\n", s.adm.ceil)
	fmt.Fprintf(w, "hinet_admission_floor %d\n", s.adm.floor)
	fmt.Fprintf(w, "hinet_admission_inflight %d\n", s.adm.inflight.Load())
	fmt.Fprintf(w, "hinet_admission_shed_total{class=\"query\"} %d\n", s.adm.shedQuery.Load())
	fmt.Fprintf(w, "hinet_admission_shed_total{class=\"write\"} %d\n", s.adm.shedWrite.Load())
	degraded := 0
	if s.adm.Degraded() {
		degraded = 1
	}
	fmt.Fprintf(w, "hinet_degraded %d\n", degraded)
	fmt.Fprintf(w, "hinet_brownouts_total %d\n", s.adm.brownouts.Load())
	fmt.Fprintf(w, "hinet_degraded_responses_total %d\n", s.adm.degradedServed.Load())
	fmt.Fprintf(w, "hinet_timeouts_total %d\n", s.adm.timeouts.Load())

	// Process and pool runtime gauges.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "hinet_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "hinet_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(w, "hinet_gc_cycles_total %d\n", ms.NumGC)
	fmt.Fprintf(w, "hinet_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)
	fmt.Fprintf(w, "hinet_pool_workers %d\n", sparse.Parallelism(0))
	fmt.Fprintf(w, "hinet_pool_queue_depth %d\n", sparse.QueueDepth())
	hits, misses := sparse.SpgemmPoolStats()
	fmt.Fprintf(w, "hinet_spgemm_scratch_hits_total %d\n", hits)
	fmt.Fprintf(w, "hinet_spgemm_scratch_misses_total %d\n", misses)
}

// AdmissionState is a point-in-time copy of the overload-protection
// state, exported for tests and the load harness.
type AdmissionState struct {
	Limit, Floor, Ceiling int
	Inflight              int64
	Degraded              bool
	ShedQuery, ShedWrite  uint64
	Brownouts             uint64
	DegradedResponses     uint64
	Timeouts              uint64
}

// Admission returns the adaptive limiter's current state and counters.
func (s *Server) Admission() AdmissionState {
	return AdmissionState{
		Limit:             s.adm.Limit(),
		Floor:             s.adm.floor,
		Ceiling:           s.adm.ceil,
		Inflight:          s.adm.inflight.Load(),
		Degraded:          s.adm.Degraded(),
		ShedQuery:         s.adm.shedQuery.Load(),
		ShedWrite:         s.adm.shedWrite.Load(),
		Brownouts:         s.adm.brownouts.Load(),
		DegradedResponses: s.adm.degradedServed.Load(),
		Timeouts:          s.adm.timeouts.Load(),
	}
}

// CacheStats exposes the result cache counters for tests and the load
// harness.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }
