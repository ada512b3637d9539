// Serving across writes: a write patches the half-path factor the
// similarity index is served from (internal/metapath); nothing a client
// can read may tell a patched generation from one built cold.

package serve

import (
	"encoding/json"
	"fmt"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"testing"

	"hinet/internal/dblp"
	"hinet/internal/ingest"
	"hinet/internal/stats"
)

// metricValue reads one unlabelled series off /metrics.
func metricValue(t *testing.T, s *Server, series string) float64 {
	t.Helper()
	_, metrics := do(t, s, "GET", "/metrics", "")
	i := strings.Index(metrics, "\n"+series+" ")
	if i < 0 {
		t.Fatalf("/metrics lacks %s", series)
	}
	var v float64
	if _, err := fmt.Sscan(metrics[i+len(series)+2:], &v); err != nil {
		t.Fatalf("%s: %v", series, err)
	}
	return v
}

var volatileShardFields = regexp.MustCompile(`(?m)^\s*"(inflight|queries)": \d+,?\n`)

// stableStats is the part of /v1/stats a generation determines: what
// the index holds and how the cluster stands, without clocks and
// traffic counters.
func stableStats(t *testing.T, s *Server) string {
	t.Helper()
	var st struct {
		Cluster struct {
			Epoch  int64   `json:"epoch"`
			Policy string  `json:"policy"`
			Shards int     `json:"shards"`
			Skew   float64 `json:"skew"`
		} `json:"cluster"`
		Epoch   int64          `json:"epoch"`
		Objects map[string]int `json:"objects"`
		PathSim map[string]int `json:"pathsim"`
		Seed    int64          `json:"seed"`
	}
	if code := get(t, s, "GET", "/v1/stats", &st); code != 200 {
		t.Fatalf("/v1/stats = %d", code)
	}
	out, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestIngestMatchesColdReference posts twelve back-to-back 3-paper
// ingests and one removal (an author's remove-node and a remove-edge) to
// a live server and to a reference whose meta-path engine is emptied
// before every write — so each of its generations is built cold from the
// same deltas. After every write the top-k answers over the
// prebuilt path and over one the first reader materializes,
// /v1/cluster/shards and the stable part of /v1/stats are byte-equal on
// the two. Readers run beside the writes.
func TestIngestMatchesColdReference(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := Options{Seed: 3, Shards: shards, CacheCapacity: -1, ControlInterval: -1,
				Models: ModelConfig{Corpus: dblp.Config{AuthorsPerArea: 300, Papers: 3000}}}
			live, ref := newTestServer(t, opts), newTestServer(t, opts)
			dim := live.Snapshot().IndexDim

			stop := make(chan struct{})
			var readers sync.WaitGroup
			for g := 0; g < 2; g++ {
				readers.Add(1)
				go func(g int) {
					defer readers.Done()
					for i := g; ; i += 2 {
						select {
						case <-stop:
							return
						default:
						}
						p := fmt.Sprintf("/v1/pathsim/topk?id=%d&k=20", (i*37)%dim)
						if i%3 == 0 {
							p += "&path=A-P-T-P-A"
						}
						code, body := do(t, live, "GET", p, "")
						if code != 200 {
							t.Errorf("reader: %s = %d: %s", p, code, body)
							return
						}
					}
				}(g)
			}
			defer func() {
				close(stop)
				readers.Wait()
			}()

			compare := func(stage string, names []string) {
				t.Helper()
				surfaces := []string{"/v1/cluster/shards"}
				for _, spec := range []string{"", "&path=A-P-T-P-A"} {
					for _, id := range []int{0, 7, dim / 2, dim - 1} {
						surfaces = append(surfaces, fmt.Sprintf("/v1/pathsim/topk?id=%d&k=50%s", id, spec))
					}
					for _, name := range names { // rows the write replaced
						surfaces = append(surfaces, "/v1/pathsim/topk?k=50&name="+url.QueryEscape(name)+spec)
					}
				}
				for _, p := range surfaces {
					c1, b1 := do(t, live, "GET", p, "")
					c2, b2 := do(t, ref, "GET", p, "")
					b1, b2 = volatileShardFields.ReplaceAllString(b1, ""), volatileShardFields.ReplaceAllString(b2, "")
					if c1 != c2 || b1 != b2 || (c1 != 200 && p != "/v1/cluster/shards") {
						t.Fatalf("%s: %s diverged\nlive (%d): %s\ncold (%d): %s", stage, p, c1, b1, c2, b2)
					}
				}
				if s1, s2 := stableStats(t, live), stableStats(t, ref); s1 != s2 {
					t.Fatalf("%s: /v1/stats diverged\nlive: %s\ncold: %s", stage, s1, s2)
				}
			}
			compare("boot", nil)

			rng := stats.NewRNG(21)
			for write := 1; write <= 13; write++ {
				batch := ingest.SamplePapers(live.Snapshot().Corpus, rng, 3)
				if write == 9 { // detach the last author, in the last shard's range, and one of paper 0's authors
					net := live.Snapshot().Corpus.Net
					var author int
					net.Relation(dblp.TypePaper, dblp.TypeAuthor).Row(0, func(c int, _ float64) { author = c })
					batch = []ingest.Delta{
						{Op: ingest.OpRemoveNode, Type: string(dblp.TypeAuthor), Name: net.Name(dblp.TypeAuthor, dim-1)},
						{Op: ingest.OpRemoveEdge, SrcType: string(dblp.TypePaper), Src: net.Name(dblp.TypePaper, 0),
							DstType: string(dblp.TypeAuthor), Dst: net.Name(dblp.TypeAuthor, author)},
					}
				}
				var names []string
				for _, d := range batch { // rows the write replaced
					switch {
					case d.Op == ingest.OpRemoveNode:
						names = append(names, d.Name)
					case d.DstType == string(dblp.TypeAuthor):
						names = append(names, d.Dst)
					}
				}
				ref.Snapshot().Corpus.Net.PathEngine().Reset() // nothing to patch from: the reference builds this generation cold
				for _, s := range []*Server{live, ref} {
					if out, code := postIngest(t, s, batch); code != 200 {
						t.Fatalf("write %d: ingest = %d: %v", write, code, out)
					}
				}
				if cold := metricValue(t, ref, "hinet_metapath_patches_total"); cold != 0 {
					t.Fatalf("write %d: the reference patched %v products: it is not a cold rebuild", write, cold)
				}
				if metricValue(t, live, "hinet_metapath_patches_total") == 0 {
					t.Fatalf("write %d: the live server patched nothing: it is not an incremental write", write)
				}
				stage := fmt.Sprintf("write %d", write)
				compare(stage, names)
			}
		})
	}
}
