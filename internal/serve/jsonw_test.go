package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"hinet/internal/dblp"
)

// fuzzDoc exercises every writer position — member, element, nested
// container, empty container, a string as key — in one document.
type fuzzDoc struct {
	S     string             `json:"s"`
	F     float64            `json:"f"`
	Keyed map[string]float64 `json:"keyed"`
	List  []any              `json:"list"`
	Tree  any                `json:"tree"`
	Flag  bool               `json:"flag"`
}

// writeFuzzDoc is fuzzDoc by hand.
func writeFuzzDoc(w *jsonWriter, s string, f float64) {
	w.beginObject()
	w.key("s").str(s)
	w.key("f").float(f)
	w.key("keyed").beginObject()
	w.key(s).float(f)
	w.endObject()
	w.key("list").beginArray()
	w.str(s)
	w.float(f)
	w.beginArray()
	w.endArray()
	w.beginObject()
	w.endObject()
	w.integer(math.MinInt64)
	w.unsigned(math.MaxUint64)
	w.endArray()
	w.key("tree").value(map[string]any{s: []any{f, s, map[string]any{}}})
	w.key("flag").boolean(len(s)%2 == 0)
	w.endObject()
}

// FuzzJSONWriter is the differential test behind the byte-compat
// contract: for any string and any float64 the hand-rolled writer and
// json.Encoder+SetIndent produce the same bytes, and reject the same
// (non-finite) numbers.
func FuzzJSONWriter(f *testing.F) {
	for _, s := range []string{
		"", "database-author-17", `quote " backslash \ slash /`, "<script>&amp;</script>",
		"\x00\x01\b\f\n\r\t\x1f\x7f", "line\u2028sep\u2029para", "bad \xff\xfe utf8 \xc3", "\xe2\x80",
		"héllo wörld — 数据库 🚀", "\ufffd already replaced",
	} {
		for _, v := range []float64{
			0, math.Copysign(0, -1), 1, -1, 0.5, 1e-7, 9.999999e-7, 1e-6, 1e20, 1e21, 1.5e300, 123456789,
			math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
			0.1 + 0.2, 1.0 / 3, math.Pi * 1e-9, math.NaN(), math.Inf(1), math.Inf(-1),
		} {
			f.Add(s, math.Float64bits(v))
		}
	}
	f.Fuzz(func(t *testing.T, s string, bits uint64) {
		v := math.Float64frombits(bits)
		w := newJSONWriter()
		defer w.release()
		writeFuzzDoc(w, s, v)
		ref := fuzzDoc{
			S: s, F: v, Keyed: map[string]float64{s: v},
			List: []any{s, v, []any{}, map[string]any{}, int64(math.MinInt64), uint64(math.MaxUint64)},
			Tree: map[string]any{s: []any{v, s, map[string]any{}}},
			Flag: len(s)%2 == 0,
		}
		var want strings.Builder
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(ref); err != nil {
			if w.err == nil {
				t.Fatalf("encoding/json rejects (%q, %v) with %v; the writer accepted it", s, v, err)
			}
			return
		}
		if w.err != nil {
			t.Fatalf("writer rejects (%q, %v): %v", s, v, w.err)
		}
		if got := string(w.buf) + "\n"; got != want.String() {
			t.Fatalf("(%q, %v)\n--- got\n%s--- want\n%s", s, v, got, want.String())
		}
	})
}

// sink is a reusable response writer, so the budgets below count the
// server's allocations and not a recorder's.
type sink struct {
	hdr  http.Header
	code int
	n    int
}

func (s *sink) Header() http.Header         { return s.hdr }
func (s *sink) WriteHeader(code int)        { s.code = code }
func (s *sink) Write(b []byte) (int, error) { s.n += len(b); return len(b), nil }

// TestHandlerAllocBudget pins what an uncached top-k request (topk_cold's path) may allocate.
func TestHandlerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	s := newTestServer(t, Options{Seed: 5, CacheCapacity: -1, ControlInterval: -1, Models: ModelConfig{Corpus: dblp.Config{
		Areas:         []string{"database", "datamining"},
		VenuesPerArea: 3, AuthorsPerArea: 200, TermsPerArea: 30, SharedTerms: 15, Papers: 2000,
	}}})
	h := s.Handler()
	measure := func(k int) (allocs, bytes float64) {
		const n = 200
		reqs := make([]*http.Request, n)
		for i := range reqs {
			reqs[i] = httptest.NewRequest("GET", "/v1/pathsim/topk?id="+itoa(i)+"&k="+itoa(k), nil)
		}
		sk := &sink{hdr: http.Header{}}
		rows := 0
		serve := func(req *http.Request) {
			clear(sk.hdr)
			sk.code, sk.n = 200, 0
			h.ServeHTTP(sk, req)
			if sk.code != 200 {
				t.Fatalf("k=%d: status %d", k, sk.code)
			}
			rows += sk.n
		}
		for _, req := range reqs[:20] { // warm the pools
			serve(req)
		}
		rows = 0
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, req := range reqs {
			serve(req)
		}
		runtime.ReadMemStats(&m1)
		if rows/n < 60*min(k, 100) {
			t.Fatalf("k=%d: bodies average %d bytes — the corpus no longer fills k rows", k, rows/n)
		}
		return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n
	}
	a10, b10 := measure(10)
	a100, b100 := measure(100)
	t.Logf("k=10: %.1f allocs, %.0f B/req; k=100: %.1f allocs, %.0f B/req", a10, b10, a100, b100)
	if a10 > 16 || a100 > 16 {
		t.Errorf("allocs/req = %.1f (k=10), %.1f (k=100); budget 16 (was 76 / 82)", a10, a100)
	}
	if b10 > 3<<10 || b100 > 5<<10 {
		t.Errorf("B/req = %.0f (k=10), %.0f (k=100); budget 3 KiB / 5 KiB (was 9 / 12 KiB)", b10, b100)
	}
	if b100-b10 > 2<<10 {
		t.Errorf("k=100 allocates %.0f B/req more than k=10; the body must not allocate per row (budget 2 KiB)", b100-b10)
	}
}

// TestLargeBodyDoesNotPinPool: a body past maxPooledJSON is rendered in
// a buffer that grew for it, and that buffer is dropped, not pooled —
// one full-population /v1/rank must not leave a megabyte parked behind
// every later 1 KB response.
func TestLargeBodyDoesNotPinPool(t *testing.T) {
	s := newTestServer(t, Options{Seed: 5, ControlInterval: -1, Models: ModelConfig{Corpus: dblp.Config{
		Areas:         []string{"database", "datamining"},
		VenuesPerArea: 3, AuthorsPerArea: 6000, TermsPerArea: 30, SharedTerms: 15, Papers: 300,
	}}})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/rank?top=1000000", nil))
	if rec.Code != 200 || rec.Body.Len() < 1<<20 {
		t.Fatalf("rank = %d with a %d-byte body, want 200 and over 1 MiB", rec.Code, rec.Body.Len())
	}
	// Whatever the pool hands out next, none of it is the grown buffer.
	for i := 0; i < 64; i++ {
		if w := newJSONWriter(); cap(w.buf) > maxPooledJSON {
			t.Fatalf("pool returned a %d-byte buffer after a %d-byte response", cap(w.buf), rec.Body.Len())
		}
	}
	// A body that fits is reused: the next writer on this goroutine's P
	// comes back empty with its capacity kept.
	if raceEnabled {
		return // under -race sync.Pool drops items at random
	}
	w := newJSONWriter()
	w.buf = append(w.buf, make([]byte, 8<<10)...)
	grown := cap(w.buf)
	w.release()
	if w2 := newJSONWriter(); len(w2.buf) != 0 || cap(w2.buf) != grown {
		t.Errorf("pooled writer came back with len %d cap %d, want 0 and %d", len(w2.buf), cap(w2.buf), grown)
	}
}
