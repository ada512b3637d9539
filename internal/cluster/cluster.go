// Package cluster is the scatter-gather serving tier, the one kernel
// and write surface internal/serve knows: it splits the PathSim query
// plane of one logical snapshot across N shards while keeping every
// answer bitwise-identical at any N. An unsharded server is the N = 1
// case — one shard owning the whole candidate range.
//
// The design partitions the *similarity index* and shares the
// *models*:
//
//   - Each shard owns a contiguous candidate range [Lo, Hi) of the
//     PathSim index's endpoint type, chosen to balance scan work
//     (Partition), and answers from a pathsim.Index over that range: the
//     path's half-path factor W and its transpose, which the network's
//     meta-path engine caches once and every shard holds by pointer. No
//     shard, at any count, materializes the commuting matrix W·Wᵀ; a
//     query accumulates its one row of it, cut to the shard's range.
//   - The network and the models over it (PageRank, HITS, RankClus,
//     NetClus) are one immutable generation (Models) per write, built
//     once and shared by pointer among in-process shards. Being
//     deterministic in (seed, spec, delta history), a shard that cannot
//     share — replaying its log, or behind a future process boundary —
//     rebuilds a bit-identical replica. Ranking and clustering are
//     functions of the whole network, so no shard answers them: whoever
//     holds the generation (Coordinator.Models) reads its models directly.
//
// TopK/BatchTopK queries scatter to all shards — every shard scores its
// range of the query's row and returns a local top-k — and the
// coordinator merges the partials, each already sorted, in the order
// the single-index scan selects by (pathsim.MergeTopK, a k-way merge),
// which is what makes the merged answer bitwise-equal, tie order
// included. A meta-path's range
// indexes are materialized by Resolve, on the asking request's
// goroutine, before the first query over it.
//
// Writes (Ingest/Rebuild) fan out shard 0 first: every shard applies
// the same write to the same state, so shard 0 acts as the validation
// gate — if it rejects a batch nothing has changed anywhere, and if it
// accepts, the remaining shards cannot fail differently. Each shard publishes
// its new generation atomically, retaining the previous one so reads
// at the prior epoch keep answering during the fan-out window; the
// coordinator's epoch advances only after every shard has published.
// Once whoever hands out epochs to readers has moved on too, it Trims
// the shards and the previous generation's memory is released.
//
// Shards are addressed through the transport-agnostic Shard interface;
// LocalShard is the in-process implementation (an HTTP/gRPC transport
// can wrap the same interface later without touching the coordinator).
package cluster

import (
	"context"
	"errors"
	"fmt"

	"hinet/internal/ingest"
	"hinet/internal/pathsim"
)

// Shard is one partition of the serving tier. Read methods take the
// epoch the caller expects to query — a shard answers from its current
// or immediately previous generation and fails with an EpochError
// otherwise, so a coordinator can never silently mix generations.
// Write methods return the shard's new epoch.
type Shard interface {
	// ID returns the shard's index in the partition.
	ID() int
	// Epoch returns the shard's current published epoch (0 before the
	// first write).
	Epoch() int64
	// Resolve reports whether the shard already holds its range index of
	// the meta-path (empty spec = the prebuilt default, always held) at
	// epoch; when it does not and build is set, it materializes and
	// memoizes the index before returning. A path the network's schema
	// cannot back fails with a ClientError.
	Resolve(ctx context.Context, epoch int64, path string, build bool) (held bool, err error)
	// TopK answers a partial top-k query over the shard's candidate
	// range of the given meta-path (empty spec = the prebuilt default).
	TopK(ctx context.Context, epoch int64, path string, x, k int) ([]pathsim.Pair, error)
	// BatchTopK answers one partial top-k per entry of xs.
	BatchTopK(ctx context.Context, epoch int64, path string, xs []int, k int) ([][]pathsim.Pair, error)
	// Ingest applies a delta batch as a new generation (all-or-nothing)
	// and returns the published epoch.
	Ingest(deltas []ingest.Delta, refreshModels bool) (int64, ingest.Summary, error)
	// Rebuild materializes a fresh generation from seed.
	Rebuild(seed int64) (int64, error)
	// Trim tells the shard that no new read will ask for a generation
	// older than epoch, so it may stop retaining one. A reader still
	// holding an older epoch gets an EpochError and starts over
	// (RetryEvicted).
	Trim(epoch int64)
	// Stats reports the shard's partition geometry and load counters.
	Stats() ShardStats
}

// ShardStats is one shard's observable state: partition geometry, the
// default-path index size (pathsim.Index.NNZ over the shard's range: the
// skew signal), and load counters — the PathSim reads (TopK, BatchTopK)
// the shard has taken and is running; no other read reaches a shard.
type ShardStats struct {
	ID       int    `json:"id"`
	Epoch    int64  `json:"epoch"`
	Lo       int    `json:"lo"`
	Hi       int    `json:"hi"`
	Rows     int    `json:"rows"`
	NNZ      int    `json:"nnz"`
	Inflight int64  `json:"inflight"`
	Queries  uint64 `json:"queries"`
}

// EpochError reports a query for a generation the shard no longer (or
// does not yet) retain.
type EpochError struct {
	Shard int
	Want  int64
	Have  int64
}

func (e *EpochError) Error() string {
	return fmt.Sprintf("cluster: shard %d cannot serve epoch %d (at epoch %d)", e.Shard, e.Want, e.Have)
}

// ClientError marks a query error caused by the request itself (a bad
// path) rather than shard state; the serving layer maps it to HTTP 400.
type ClientError struct{ Err error }

func (e *ClientError) Error() string { return e.Err.Error() }
func (e *ClientError) Unwrap() error { return e.Err }

// RetryEvicted runs read against the generation at and, when the shards
// no longer retain it — they keep the current generation and, until
// trimmed, one predecessor, so writes landing between a caller's load
// of at and its read can evict it: an EpochError — against whatever
// load then returns, as long as that moved on, at most twice. It is the
// one place a read is retried; T is whatever pins the generation for
// the caller (the cluster epoch, or a serving snapshot).
func RetryEvicted[T comparable](at T, load func() T, read func(T) error) error {
	for attempt := 0; ; attempt++ {
		err := read(at)
		if err == nil || attempt == 2 {
			return err
		}
		// Declared past the common return: errors.As moves it to the heap.
		if ee := (*EpochError)(nil); !errors.As(err, &ee) {
			return err
		}
		fresh := load()
		if fresh == at {
			return err
		}
		at = fresh
	}
}
