// Sharded serving glue: when Options.Shards > 1 the server fronts an
// in-process scatter-gather cluster (internal/cluster) instead of the
// snapshot's own index. The cluster builds each generation once; the
// store publishes that same generation as its snapshot (names, corpus
// and model payloads render from it) without an index of its own, and
// the coordinator answers the kernel-shaped surfaces (top-k, rank,
// clusters) from partitioned candidate ranges.

package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"hinet/internal/cluster"
	"hinet/internal/pathsim"
)

// clusterKernel adapts the scatter-gather coordinator to the batcher's
// topKKernel: one coalesced batch becomes one BatchTopK fan-out at the
// pinned epoch. Dim is the endpoint-type cardinality captured at
// resolve time (the shards serve the snapshot's own network).
type clusterKernel struct {
	coord *cluster.Coordinator
	path  string // resolved path spec ("" = prebuilt APVPA)
	dim   int
	epoch int64
}

func (ck clusterKernel) Dim() int { return ck.dim }

func (ck clusterKernel) BatchTopKCtx(ctx context.Context, xs []int, k int) ([][]pathsim.Pair, error) {
	return ck.coord.BatchTopKAt(ctx, ck.epoch, ck.path, xs, k)
}

// defaultKernel is the kernel for the default (empty path=) query
// surface: the coordinator when sharded, the snapshot's prebuilt index
// otherwise.
func (s *Server) defaultKernel(snap *Snapshot) (topKKernel, string) {
	if s.coord != nil {
		return clusterKernel{coord: s.coord, path: "", dim: snap.PathSim.Dim(), epoch: snap.Epoch}, pathAPVPA.String()
	}
	return snap.PathSim.Index, pathAPVPA.String()
}

// Coordinator exposes the scatter-gather tier (nil when unsharded);
// tests and the bench harness reach shards through it.
func (s *Server) Coordinator() *cluster.Coordinator { return s.coord }

// writeClusterStats renders the /v1/stats "cluster" entry. Its key set
// and value types are identical in both modes — the replay harness
// digests response shapes, and a trace recorded single-process must
// replay cleanly against a sharded server (and vice versa).
func (s *Server) writeClusterStats(w *jsonWriter, snap *Snapshot) {
	shards, epoch, policy, skew := 1, snap.Epoch, "none", 1.0
	var scatters, routed uint64
	if s.coord != nil {
		shards, epoch, policy, skew = s.coord.Shards(), s.coord.Epoch(), s.coord.PolicyName(), s.coord.Skew()
		scatters, routed = s.coord.Scatters(), s.coord.Routed()
	}
	w.beginObject()
	w.key("epoch").integer(epoch)
	w.key("policy").str(policy)
	w.key("routed").unsigned(routed)
	w.key("scatters").unsigned(scatters)
	w.key("shards").integer(int64(shards))
	w.key("skew").float(skew)
	w.endObject()
}

// handleClusterShards serves the partition-skew view: per-shard epoch,
// candidate range, nnz, and load counters. Registered in both modes
// (the endpoint set is fixed at boot); an unsharded server answers 404.
func (s *Server) handleClusterShards(w http.ResponseWriter, r *http.Request) {
	if s.coord == nil {
		httpError(w, http.StatusNotFound, "server is not sharded (start with -shards N)")
		return
	}
	tr := traceOf(w)
	sp := tr.Start("collect")
	q := r.URL.Query()
	stats := s.coord.Stats()
	epoch, policy, bounds, skew := s.coord.Epoch(), s.coord.PolicyName(), s.coord.Partition().Bounds, s.coord.Skew()
	tr.Next(sp, "serialize")
	jw := newJSONWriter()
	jw.beginObject()
	jw.key("epoch").integer(epoch)
	jw.key("partition").beginArray()
	for _, b := range bounds {
		jw.integer(int64(b))
	}
	jw.endArray()
	jw.key("policy").str(policy)
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
	if s.coord == nil {
		return
	}
	fmt.Fprintf(w, "hinet_cluster_shards %d\n", s.coord.Shards())
	fmt.Fprintf(w, "hinet_cluster_epoch %d\n", s.coord.Epoch())
	fmt.Fprintf(w, "hinet_cluster_skew %g\n", s.coord.Skew())
	fmt.Fprintf(w, "hinet_cluster_scatters_total %d\n", s.coord.Scatters())
	fmt.Fprintf(w, "hinet_cluster_routed_total %d\n", s.coord.Routed())
	for _, st := range s.coord.Stats() {
		fmt.Fprintf(w, "hinet_shard_epoch{shard=\"%d\"} %d\n", st.ID, st.Epoch)
		fmt.Fprintf(w, "hinet_shard_nnz{shard=\"%d\"} %d\n", st.ID, st.NNZ)
		fmt.Fprintf(w, "hinet_shard_rows{shard=\"%d\"} %d\n", st.ID, st.Rows)
		fmt.Fprintf(w, "hinet_shard_inflight{shard=\"%d\"} %d\n", st.ID, st.Inflight)
		fmt.Fprintf(w, "hinet_shard_queries_total{shard=\"%d\"} %d\n", st.ID, st.Queries)
	}
}

// adopt runs one write of the sharded tier and publishes the generation
// its shards now share — the same *cluster.Models, not a rebuild of it
// — as the next snapshot. Both happen under the store lock, coordinator
// first: the coordinator epoch therefore always leads (or equals) the
// store epoch, so a snapshot's epoch is always servable by the shards —
// current, or the retained previous generation.
func (s *Server) adopt(write func() error) (*Snapshot, error) {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	start := time.Now()
	if err := write(); err != nil {
		return nil, err
	}
	m := s.coord.Shard(0).(*cluster.LocalShard).Models()
	if m == nil {
		return nil, errNoSnapshot
	}
	nnz := 0
	for _, st := range s.coord.Stats() {
		nnz += st.NNZ
	}
	return s.store.publish(m, nnz, start), nil
}
