// Cluster glue: the server fronts an in-process scatter-gather cluster
// (internal/cluster) of max(1, Options.Shards) shards — an unsharded
// server is the one-shard case, not a different path. The cluster
// applies each write once and publishes a View; that View is the
// serving snapshot — rank and cluster reads, names and the corpus come
// straight from it, and its PathSim top-k scatters over the shards'
// candidate ranges it holds. Only what an operator sees of the tier —
// /v1/cluster/shards, the hinet_cluster_* and hinet_shard_* series, the
// /v1/stats "cluster" entry — depends on whether there is more than one
// shard; each reads every generation value from the one View its
// caller loaded.

package serve

import (
	"fmt"
	"io"
	"net/http"

	"hinet/internal/cluster"
)

// Coordinator exposes the scatter-gather tier; tests and the CLI banner
// reach shards through it.
func (s *Server) Coordinator() *cluster.Coordinator { return s.coord }

// writeClusterStats renders the /v1/stats "cluster" entry. Its key set
// and value types are identical at every shard count — the replay
// harness digests response shapes, and a trace recorded against one
// shard must replay cleanly against three (and vice versa).
func (s *Server) writeClusterStats(w *jsonWriter, v *cluster.View) {
	shards, skew, scatters := 1, 1.0, uint64(0)
	if s.coord.Shards() > 1 {
		shards, skew, scatters = s.coord.Shards(), v.Skew(), s.coord.Scatters()
	}
	w.beginObject()
	w.key("epoch").integer(v.Epoch)
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
	v := s.coord.View()
	stats, skew := v.Stats(), v.Skew()
	tr.Next(sp, "serialize")
	jw := newJSONWriter()
	jw.beginObject()
	jw.key("epoch").integer(v.Epoch)
	jw.key("partition").beginArray()
	for _, b := range s.coord.Partition().Bounds {
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
// series of v to /metrics. Nothing is emitted unsharded — a scrape
// config keyed on these series only ever sees them on a sharded process.
func (s *Server) writeClusterMetrics(w io.Writer, v *cluster.View) {
	if s.coord.Shards() <= 1 {
		return
	}
	fmt.Fprintf(w, "hinet_cluster_shards %d\n", s.coord.Shards())
	fmt.Fprintf(w, "hinet_cluster_epoch %d\n", v.Epoch)
	fmt.Fprintf(w, "hinet_cluster_skew %g\n", v.Skew())
	fmt.Fprintf(w, "hinet_cluster_scatters_total %d\n", s.coord.Scatters())
	for _, st := range v.Stats() {
		fmt.Fprintf(w, "hinet_shard_epoch{shard=\"%d\"} %d\n", st.ID, st.Epoch)
		fmt.Fprintf(w, "hinet_shard_nnz{shard=\"%d\"} %d\n", st.ID, st.NNZ)
		fmt.Fprintf(w, "hinet_shard_rows{shard=\"%d\"} %d\n", st.ID, st.Rows)
		fmt.Fprintf(w, "hinet_shard_inflight{shard=\"%d\"} %d\n", st.ID, st.Inflight)
		fmt.Fprintf(w, "hinet_shard_queries_total{shard=\"%d\"} %d\n", st.ID, st.Queries)
	}
}
