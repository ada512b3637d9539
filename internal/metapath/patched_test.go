package metapath_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hinet/internal/hin"
	"hinet/internal/ingest"
	"hinet/internal/pathsim"
	"hinet/internal/sparse"
)

// The differential suite for patched products: a small DBLP-shaped
// network driven through the real write path (ingest.Apply over
// hin.Network, so the invalidation predicates are the production ones)
// by a scripted stream of mutations, and after every queried batch each
// watched product from the live engine — patched from whatever it held
// before — compared bit for bit with a cold evaluation.

const (
	tA = "author"
	tP = "paper"
	tV = "venue"
	tT = "term"
)

// watched are the products compared after every queried batch: both
// leaf orientations' consumers, planned products, Gram products over
// each middle type, and a reversed orientation answered by transpose.
var watched = [][]string{
	{tA, tP},
	{tA, tP, tV},
	{tA, tP, tA},
	{tA, tP, tV, tP, tA},
	{tA, tP, tT, tP, tA},
	{tV, tP, tA, tP, tV},
	{tV, tP, tA},
}

var (
	pathAPVPA  = watched[3]
	indexAPVPA = hin.MetaPath{tA, tP, tV, tP, tA}
)

// world is the network under test plus the script interpreter's state.
type world struct {
	net   *hin.Network
	rng   *rand.Rand
	fresh int // suffix for new object names
	// cuts are the interior bounds of the two 3-way partitions of the
	// author type (uniform and nnz-balanced), fixed at the first query
	// like a cluster's partition; the last range runs to the current end.
	cuts [][2]int
}

func newWorld(seed int64) *world {
	w := &world{net: hin.NewNetwork(), rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 24; i++ {
		w.net.AddObject(tA, fmt.Sprintf("a%d", i))
	}
	for i := 0; i < 4; i++ {
		w.net.AddObject(tV, fmt.Sprintf("v%d", i))
	}
	for i := 0; i < 8; i++ {
		w.net.AddObject(tT, fmt.Sprintf("t%d", i))
	}
	for i := 0; i < 30; i++ {
		p := w.net.AddObject(tP, fmt.Sprintf("p%d", i))
		w.net.AddLink(tP, p, tV, w.rng.Intn(4), 1)
		for j := 0; j < 1+w.rng.Intn(3); j++ {
			w.net.AddLink(tP, p, tA, w.rng.Intn(24), 1)
		}
		for j := 0; j < 1+w.rng.Intn(3); j++ {
			w.net.AddLink(tP, p, tT, w.rng.Intn(8), 1)
		}
	}
	return w
}

func (w *world) pick(t hin.Type) string { return w.net.Name(t, w.rng.Intn(w.net.Count(t))) }

func (w *world) name(prefix string) string {
	w.fresh++
	return fmt.Sprintf("%s-new%d", prefix, w.fresh)
}

func edge(st, s, dt, d string, weight float64) ingest.Delta {
	return ingest.Delta{Op: ingest.OpAddEdge, SrcType: st, Src: s, DstType: dt, Dst: d, Weight: weight}
}

// paper is one paper arrival: a node plus venue, author and term edges.
func (w *world) paper(authors ...string) []ingest.Delta {
	p := w.name("p")
	ds := []ingest.Delta{{Op: ingest.OpAddNode, Type: tP, Name: p}, edge(tP, p, tV, w.pick(tV), 0)}
	for len(authors) < 1+w.rng.Intn(2) {
		authors = append(authors, w.pick(tA))
	}
	for _, a := range authors {
		ds = append(ds, edge(tP, p, tA, a, 0))
	}
	return append(ds, edge(tP, p, tT, w.pick(tT), 0))
}

// step interprets one script byte. It returns the deltas to add to the
// open batch, and whether the batch ends here and is queried.
func (w *world) step(b byte) (ds []ingest.Delta, end, query bool) {
	switch b % 12 {
	case 0, 1, 2:
		return w.paper(), false, false
	case 3: // the endpoint type grows, the new author publishes at once
		a := w.name("a")
		return append([]ingest.Delta{{Op: ingest.OpAddNode, Type: tA, Name: a}}, w.paper(a)...), false, false
	case 4: // the endpoint type grows by an isolated object; a middle type grows too
		return []ingest.Delta{{Op: ingest.OpAddNode, Type: tA, Name: w.name("a")}, {Op: ingest.OpAddNode, Type: tV, Name: w.name("v")}}, false, false
	case 5: // fractional weight onto a (probably) new pair
		return []ingest.Delta{edge(tP, w.pick(tP), tA, w.pick(tA), 0.1+float64(b%7)/3)}, false, false
	case 6: // fractional weight onto a stored entry: values change, pattern does not
		p := w.rng.Intn(w.net.Count(tP))
		var d []ingest.Delta
		w.net.Relation(tP, tV).Row(p, func(v int, _ float64) {
			d = []ingest.Delta{edge(tP, w.net.Name(tP, p), tV, w.net.Name(tV, v), 1.0/3)}
		})
		return d, false, false
	case 7: // remove one stored paper-author edge
		p := w.rng.Intn(w.net.Count(tP))
		var d []ingest.Delta
		w.net.Relation(tP, tA).Row(p, func(a int, _ float64) {
			d = []ingest.Delta{{Op: ingest.OpRemoveEdge, SrcType: tP, Src: w.net.Name(tP, p), DstType: tA, Dst: w.net.Name(tA, a)}}
		})
		return d, false, false
	case 8:
		t := []hin.Type{tA, tP, tV}[int(b/12)%3]
		return []ingest.Delta{{Op: ingest.OpRemoveNode, Type: string(t), Name: w.pick(t)}}, false, false
	case 9: // a burst that dirties well over a quarter of the author rows
		for i := 0; i < 10; i++ {
			ds = append(ds, w.paper()...)
		}
		return ds, false, false
	case 10:
		return nil, true, false // batch boundary with no query after it
	default:
		return nil, true, true
	}
}

// identical reports how two matrices differ as CSRs — row lengths
// (rowPtr), column indices, value bits — or "".
func identical(got, want *sparse.Matrix) string {
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		return fmt.Sprintf("%dx%d, want %dx%d", got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for r := 0; r < want.Rows(); r++ {
		if got.RowNNZ(r) != want.RowNNZ(r) {
			return fmt.Sprintf("row %d holds %d entries, want %d", r, got.RowNNZ(r), want.RowNNZ(r))
		}
		var cols []int
		var bits []uint64
		want.Row(r, func(c int, v float64) { cols, bits = append(cols, c), append(bits, math.Float64bits(v)) })
		i, diff := 0, ""
		got.Row(r, func(c int, v float64) {
			if diff == "" && (c != cols[i] || math.Float64bits(v) != bits[i]) {
				diff = fmt.Sprintf("row %d entry %d is (%d, %v), want (%d, %v)", r, i, c, v, cols[i], math.Float64frombits(bits[i]))
			}
			i++
		})
		if diff != "" {
			return diff
		}
	}
	return ""
}

// ranges returns the six column ranges queried: the current extents of
// the two partitions cut at the first call.
func (w *world) ranges(t *testing.T) [][2]int {
	dim := w.net.Count(tA)
	if w.cuts == nil {
		m, err := w.net.PathEngine().CommuteCtx(context.Background(), pathAPVPA)
		if err != nil {
			t.Fatal(err)
		}
		nnz := [2]int{}
		for r, seen, next := 0, 0, 0; r < dim && next < 2; r++ {
			if seen += m.RowNNZ(r); seen*3 >= (next+1)*m.NNZ() {
				nnz[next], next = r+1, next+1
			}
		}
		w.cuts = [][2]int{{dim / 3, 2 * dim / 3}, nnz}
	}
	var out [][2]int
	for _, c := range w.cuts {
		out = append(out, [2]int{0, c[0]}, [2]int{c[0], c[1]}, [2]int{c[1], dim})
	}
	return out
}

// sameAnswers reports how got's answers differ from want's over the same
// range — every similarity row (AllScores, which is Sim over the range)
// and the top k of it for a few k, ids and score bits — or "". The two
// may hold the index in different forms.
func sameAnswers(got, want *pathsim.Index) string {
	if got.Lo() != want.Lo() || got.Hi() != want.Hi() || got.Dim() != want.Dim() {
		return fmt.Sprintf("range [%d,%d) of %d, want [%d,%d) of %d", got.Lo(), got.Hi(), got.Dim(), want.Lo(), want.Hi(), want.Dim())
	}
	for x := 0; x < want.Dim(); x++ {
		g, w := got.AllScores(x), want.AllScores(x)
		for y := range w {
			if math.Float64bits(g[y]) != math.Float64bits(w[y]) {
				return fmt.Sprintf("s(%d,%d) = %v, want %v", x, y, g[y], w[y])
			}
		}
		for _, k := range []int{1, 7, want.Dim()} {
			g, w := got.TopK(x, k), want.TopK(x, k)
			if !slices.EqualFunc(g, w, func(p, q pathsim.Pair) bool {
				return p.ID == q.ID && math.Float64bits(p.Score) == math.Float64bits(q.Score)
			}) {
				return fmt.Sprintf("TopK(%d, %d) = %v, want %v", x, k, g, w)
			}
		}
	}
	return ""
}

// check compares every watched product of the live engine, and the
// default path's factor index over each column range, against eng cold:
// a clone of the network whose engine is Reset — so the live engine
// keeps its chain of patched-from-patched bases — or, with resetLive,
// the live engine itself after Reset().
func (w *world) check(t *testing.T, label string, resetLive bool) {
	t.Helper()
	ctx := context.Background()
	live := w.net.PathEngine()
	got := make([]*sparse.Matrix, len(watched))
	for i, p := range watched {
		m, err := live.CommuteCtx(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v: %v", label, p, err)
		}
		got[i] = m
	}
	ranges := w.ranges(t)
	gotIx := make([]*pathsim.Index, len(ranges))
	for i, r := range ranges {
		var err error
		if gotIx[i], err = pathsim.NewRangeIndexCtx(ctx, w.net, indexAPVPA, r[0], r[1]); err != nil {
			t.Fatalf("%s: index %v: %v", label, r, err)
		}
	}

	coldNet := w.net
	if !resetLive {
		coldNet = w.net.Clone()
	}
	cold := coldNet.PathEngine()
	cold.Reset()
	for i, p := range watched {
		want, err := cold.CommuteCtx(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if d := identical(got[i], want); d != "" {
			t.Fatalf("%s: patched %v differs from cold: %s", label, p, d)
		}
	}
	full, err := pathsim.NewIndexCtx(ctx, coldNet, indexAPVPA)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ranges {
		want, err := pathsim.NewRangeIndexCtx(ctx, coldNet, indexAPVPA, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if d := sameAnswers(gotIx[i], want); d != "" {
			t.Fatalf("%s: index %v over the patched factor differs from cold: %s", label, r, d)
		}
		if gotIx[i].NNZ() != want.NNZ() {
			t.Fatalf("%s: index %v weighs %d, cold %d", label, r, gotIx[i].NNZ(), want.NNZ())
		}
		// The range is also the full product's slice.
		sliced, err := full.Range(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if d := sameAnswers(want, sliced); d != "" {
			t.Fatalf("%s: index %v differs from the full product's columns: %s", label, r, d)
		}
	}
}

// routes counts the products a script refreshed after boot, by route.
type routes struct{ patched, full uint64 }

// play runs a script: a cold first query, then the scripted batches,
// then a final queried batch and a last comparison against the live
// engine's own Reset. Steps that pick stored edges or objects apply the
// open batch first, so they never name something it already removed.
func play(t *testing.T, seed int64, script []byte) routes {
	t.Helper()
	w := newWorld(seed)
	w.check(t, "boot", false)
	boot := w.net.PathEngine().Stats()
	var batch []ingest.Delta
	apply := func(i int, query bool) {
		if _, err := ingest.Apply(w.net, batch, ingest.Options{}); err != nil {
			t.Fatalf("seed %d step %d: %v", seed, i, err)
		}
		batch = nil
		if query {
			w.check(t, fmt.Sprintf("seed %d step %d", seed, i), false)
		}
	}
	for i, b := range script {
		if op := b % 12; op >= 6 && op <= 8 {
			apply(i, false)
		}
		ds, end, query := w.step(b)
		batch = append(batch, ds...)
		if end {
			apply(i, query)
		}
	}
	apply(len(script), true)
	st := w.net.PathEngine().Stats()
	batch = w.paper()
	apply(len(script)+1, false)
	w.check(t, fmt.Sprintf("seed %d after Reset", seed), true)
	patched := st.Patches - boot.Patches
	return routes{patched: patched, full: st.Grams + st.Products - boot.Grams - boot.Products - patched}
}

// TestPatchedCommuteMatchesCold is the seeded run of the suite: random
// scripts, serial and forced-parallel kernels, plus one fixed script
// that names every case — paper arrivals, a growing endpoint type,
// fractional weights, removed edges, removed author / paper / venue,
// two and three unqueried batches in a row, and a burst past the
// quarter-rows fallback.
func TestPatchedCommuteMatchesCold(t *testing.T) {
	fixed := []byte{0, 11, 3, 11, 4, 11, 5, 6, 11, 7, 11, 8, 11, 20, 11, 32, 11,
		0, 10, 1, 10, 2, 11, 3, 10, 5, 10, 7, 10, 0, 11, 9, 11, 0, 11}
	if r := play(t, 1, fixed); r.patched == 0 || r.full == 0 {
		t.Fatalf("the fixed script must take both routes: %d products patched, %d rebuilt in full", r.patched, r.full)
	}
	var patched uint64
	for seed := int64(2); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 30+rng.Intn(30))
		rng.Read(script)
		if seed%2 == 0 {
			patched += play(t, seed, script).patched
			continue
		}
		// Force the parallel dispatch of every kernel, PatchCtx included.
		oldW, oldT := sparse.Parallelism(0), sparse.SerialThreshold(0)
		sparse.Parallelism(4)
		sparse.SerialThreshold(1)
		patched += play(t, seed, script).patched
		sparse.Parallelism(oldW)
		sparse.SerialThreshold(oldT)
	}
	if patched == 0 {
		t.Fatal("no random script took the patch route")
	}
}

// FuzzPatchedCommute is the same suite with the script (and the seed
// the operands are drawn from) chosen by the fuzzer.
func FuzzPatchedCommute(f *testing.F) {
	f.Add(int64(1), []byte{0, 11, 3, 11, 4, 11, 5, 6, 11, 7, 11, 8, 11, 20, 11, 32, 11})
	f.Add(int64(2), []byte{0, 10, 1, 10, 2, 11, 3, 10, 5, 10, 7, 10, 0, 11})
	f.Add(int64(3), []byte{9, 11, 0, 11, 9, 10, 0, 11})
	f.Add(int64(4), []byte{8, 8, 20, 32, 11, 3, 3, 4, 11})
	f.Add(int64(5), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		play(t, seed, script)
	})
}
