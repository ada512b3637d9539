// Cluster glue: the server fronts an in-process scatter-gather cluster
// (internal/cluster) of max(1, Options.Shards) shards — an unsharded
// server is the one-shard case, not a different path. The cluster
// applies each write once; the store publishes the View that pins it
// as its snapshot — rank and cluster reads, names and the corpus come
// straight from it, and its PathSim top-k scatters over the shards'
// candidate ranges it holds. Only what an operator sees of the tier —
// /v1/cluster/shards, the hinet_cluster_* and hinet_shard_* series, the
// /v1/stats "cluster" entry — depends on whether there is more than one
// shard.

package serve

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"hinet/internal/cluster"
	"hinet/internal/ingest"
)

// topKKernel is what the batcher dispatches a coalesced batch against:
// one View.BatchTopK fan-out over a meta-path's range indexes in a
// snapshot's View. dim is the endpoint-type cardinality captured at
// resolve time (the shards serve the snapshot's own network).
type topKKernel struct {
	view *cluster.View
	path string // resolved path string: batch-group, cache and View-memo key
	dim  int
}

// Coordinator exposes the scatter-gather tier; tests and the CLI banner
// reach shards through it.
func (s *Server) Coordinator() *cluster.Coordinator { return s.coord }

// writeClusterStats renders the /v1/stats "cluster" entry. Its key set
// and value types are identical at every shard count — the replay
// harness digests response shapes, and a trace recorded against one
// shard must replay cleanly against three (and vice versa).
func (s *Server) writeClusterStats(w *jsonWriter, snap *Snapshot) {
	shards, epoch, skew, scatters := 1, snap.Epoch, 1.0, uint64(0)
	if s.coord.Shards() > 1 {
		shards, epoch, skew, scatters = s.coord.Shards(), s.coord.Epoch(), s.coord.Skew(), s.coord.Scatters()
	}
	w.beginObject()
	w.key("epoch").integer(epoch)
	w.key("scatters").unsigned(scatters)
	w.key("shards").integer(int64(shards))
	w.key("skew").float(skew)
	w.endObject()
}

// handleClusterShards serves the partition-skew view: per-shard epoch,
// candidate range, nnz, and load counters (PathSim reads: nothing else
// reaches a shard). Registered at every shard count (the endpoint set is
// fixed at boot); one shard answers 404.
func (s *Server) handleClusterShards(w http.ResponseWriter, r *http.Request) {
	if s.coord.Shards() <= 1 {
		httpError(w, http.StatusNotFound, "server is not sharded (start with -shards N)")
		return
	}
	tr := traceOf(w)
	sp := tr.Start("collect")
	q := r.URL.Query()
	stats := s.coord.Stats()
	epoch, bounds, skew := s.coord.Epoch(), s.coord.Partition().Bounds, s.coord.Skew()
	tr.Next(sp, "serialize")
	jw := newJSONWriter()
	jw.beginObject()
	jw.key("epoch").integer(epoch)
	jw.key("partition").beginArray()
	for _, b := range bounds {
		jw.integer(int64(b))
	}
	jw.endArray()
	jw.key("shards").beginArray()
	for _, st := range stats {
		jw.beginObject()
		jw.key("epoch").integer(st.Epoch)
		jw.key("hi").integer(int64(st.Hi))
		jw.key("id").integer(int64(st.ID))
		jw.key("inflight").integer(st.Inflight)
		jw.key("lo").integer(int64(st.Lo))
		jw.key("nnz").integer(int64(st.NNZ))
		jw.key("queries").unsigned(st.Queries)
		jw.key("rows").integer(int64(st.Rows))
		jw.endObject()
	}
	jw.endArray()
	jw.key("skew").float(skew)
	jw.traceEcho(q, tr)
	jw.endObject()
	jw.send(w, http.StatusOK)
}

// writeClusterMetrics appends the hinet_cluster_* / hinet_shard_*
// series to /metrics. Nothing is emitted unsharded — a scrape config
// keyed on these series only ever sees them on a sharded process.
func (s *Server) writeClusterMetrics(w io.Writer) {
	if s.coord.Shards() <= 1 {
		return
	}
	fmt.Fprintf(w, "hinet_cluster_shards %d\n", s.coord.Shards())
	fmt.Fprintf(w, "hinet_cluster_epoch %d\n", s.coord.Epoch())
	fmt.Fprintf(w, "hinet_cluster_skew %g\n", s.coord.Skew())
	fmt.Fprintf(w, "hinet_cluster_scatters_total %d\n", s.coord.Scatters())
	for _, st := range s.coord.Stats() {
		fmt.Fprintf(w, "hinet_shard_epoch{shard=\"%d\"} %d\n", st.ID, st.Epoch)
		fmt.Fprintf(w, "hinet_shard_nnz{shard=\"%d\"} %d\n", st.ID, st.NNZ)
		fmt.Fprintf(w, "hinet_shard_rows{shard=\"%d\"} %d\n", st.ID, st.Rows)
		fmt.Fprintf(w, "hinet_shard_inflight{shard=\"%d\"} %d\n", st.ID, st.Inflight)
		fmt.Fprintf(w, "hinet_shard_queries_total{shard=\"%d\"} %d\n", st.ID, st.Queries)
	}
}

// adopt runs one write of the cluster tier under the store lock and
// publishes the View it ends on — the same *cluster.Models, not a
// rebuild of it — as the next snapshot. A request still in flight on
// the old snapshot keeps reading the old View, whose generation it
// holds; the process lets it go when the last such request does.
func (s *Server) adopt(write func() error) (*Snapshot, error) {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	start := time.Now()
	if err := write(); err != nil {
		return nil, err
	}
	v := s.coord.View()
	snap := &Snapshot{BuiltAt: start, View: v, IndexDim: v.Corpus.Net.Count(pathAPVPA[0])}
	for _, st := range s.coord.Stats() {
		snap.IndexNNZ += st.NNZ
	}
	snap.BuildTime = time.Since(start)
	s.store.cur.Store(snap)
	return snap, nil
}

// ingest applies a delta batch as an incremental generation (see
// cluster.IngestModels): all-or-nothing — the cluster applies it once,
// and a rejected batch changes nothing — with in-flight queries
// reading the previous snapshot, whose network is never mutated, until
// the swap.
func (s *Server) ingest(deltas []ingest.Delta, refreshModels bool) (*Snapshot, ingest.Summary, error) {
	var sum ingest.Summary
	snap, err := s.adopt(func() (err error) {
		_, sum, err = s.coord.Ingest(deltas, refreshModels)
		return err
	})
	return snap, sum, err
}

// rebuild materializes a fresh generation from seed and swaps it in.
func (s *Server) rebuild(seed int64) (*Snapshot, error) {
	return s.adopt(func() error {
		_, err := s.coord.Rebuild(seed)
		return err
	})
}
