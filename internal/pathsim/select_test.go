// Tests of the threshold selection and the k-way merge against one
// oracle: a stable full sort under comparePairs, cut to k.
package pathsim

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hinet/internal/dblp"
	"hinet/internal/hin"
	"hinet/internal/stats"
)

// sortedPrefix is the oracle: the first k of cands (given in ascending
// id order) after a stable full sort under comparePairs.
func sortedPrefix(cands []Pair, k int) []Pair {
	all := slices.Clone(cands)
	slices.SortStableFunc(all, comparePairs)
	return all[:min(len(all), max(k, 0))]
}

// selectPairs runs the selection over cands, offered in the order given.
func selectPairs(cands []Pair, k int, dst []Pair) []Pair {
	s := getSelection()
	defer putSelection(s)
	s.reset(len(cands))
	for _, p := range cands {
		s.add(p.ID, p.Score)
	}
	return s.topK(k, dst)
}

// samePairs reports whether a and b hold the same ids with the same
// score bits (so NaN equals NaN, and -0 differs from +0).
func samePairs(a, b []Pair) bool {
	return slices.EqualFunc(a, b, func(p, q Pair) bool {
		return p.ID == q.ID && math.Float64bits(p.Score) == math.Float64bits(q.Score)
	})
}

// candidates returns the scored candidates of row x in ascending id
// order — what topKInto offers its selection — through the closure
// accessor the kernel no longer uses.
func candidates(ix *Index, x int) []Pair {
	var out []Pair
	ix.M.Row(x, func(yl int, v float64) {
		y := ix.lo + yl
		if den := ix.diag[x] + ix.diag[y]; y != x && v != 0 && den != 0 {
			out = append(out, Pair{ID: y, Score: 2 * v / den})
		}
	})
	return out
}

// fuzzPalette holds the scores a fuzz byte below its length stands for.
var fuzzPalette = []float64{
	math.NaN(), math.Float64frombits(0xfff8000000000001), // two NaN payloads
	math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	1, -1, 0.5, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
}

// fuzzScores decodes a score vector: a byte below len(fuzzPalette) is
// that special value, 0xff takes the next eight bytes as raw float64
// bits, anything else is one of 16 quarter steps (a tie-heavy alphabet).
// The vector is then tiled `tiles` times and reshaped: as decoded,
// ascending, descending, or all equal to its first score.
func fuzzScores(data []byte, shape, tiles uint8) []float64 {
	var one []float64
	for i := 0; i < len(data); i++ {
		switch b := data[i]; {
		case int(b) < len(fuzzPalette):
			one = append(one, fuzzPalette[b])
		case b == 0xff && i+8 < len(data):
			one = append(one, math.Float64frombits(binary.LittleEndian.Uint64(data[i+1:])))
			i += 8
		default:
			one = append(one, float64(b%16)/4)
		}
	}
	var scores []float64
	for t := 0; t <= int(tiles%8); t++ {
		scores = append(scores, one...)
	}
	byValue := func(a, b float64) int { return comparePairs(Pair{Score: b}, Pair{Score: a}) }
	switch shape % 4 {
	case 1:
		slices.SortFunc(scores, byValue)
	case 2:
		slices.SortFunc(scores, byValue)
		slices.Reverse(scores)
	case 3:
		for i := range scores {
			scores[i] = scores[0]
		}
	}
	return scores
}

// FuzzTopKSelect: over arbitrary score vectors — NaN, ±Inf, ±0, long
// runs of ties, sorted either way — and k at and around both ends, the
// selection never panics or hangs, is deterministic, fills a caller
// buffer in place, and equals the oracle pair for pair, score bits
// included. (With NaNs too: the order ranks them below every number, by
// id, and comparePairs sorts them there.)
func FuzzTopKSelect(f *testing.F) {
	// Named shapes (NaN mixes, signed-zero ties, all-equal, sorted either
	// way, raw bit patterns) are in testdata/fuzz/FuzzTopKSelect.
	f.Add([]byte{16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31}, 5, uint8(0), uint8(3))
	f.Add([]byte{}, 1, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, k int, shape, tiles uint8) {
		if len(data) > 256 {
			data = data[:256]
		}
		scores := fuzzScores(data, shape, tiles)
		m := len(scores)
		cands := make([]Pair, m)
		for i, sc := range scores {
			cands[i] = Pair{ID: 3*i + 1, Score: sc}
		}
		if k < 0 {
			k = -(k + 1)
		}
		buf := make([]Pair, m)
		for _, k := range []int{0, 1, m - 1, m, m + 1, k % (m + 2)} {
			want := sortedPrefix(cands, k)
			got := selectPairs(cands, k, nil)
			if !samePairs(got, want) {
				t.Fatalf("k=%d of %d: got %v, want %v", k, m, got, want)
			}
			again := selectPairs(cands, k, buf)
			if !samePairs(again, got) {
				t.Fatalf("k=%d of %d: second run differs: %v then %v", k, m, got, again)
			}
			if len(again) > 0 && &again[0] != &buf[0] {
				t.Fatalf("k=%d of %d: result left the caller's buffer", k, m)
			}
		}
	})
}

// TestTopKMatchesOracleOnEveryRow: every row of a two-area corpus, at k
// below, around and beyond the row population, answers what the oracle
// does — on the whole index and on three ranges merged.
func TestTopKMatchesOracleOnEveryRow(t *testing.T) {
	c := dblp.Generate(stats.NewRNG(11), dblp.Config{
		Areas:          []string{"db", "ml"},
		AuthorsPerArea: 300,
		Papers:         2400,
	})
	path := hin.MetaPath{dblp.TypeAuthor, dblp.TypePaper, dblp.TypeVenue, dblp.TypePaper, dblp.TypeAuthor}
	full := NewIndex(c.Net, path)
	dim := full.Dim()
	ranges := make([]*Index, 3)
	for i := range ranges {
		var err error
		if ranges[i], err = full.Range(i*dim/3, (i+1)*dim/3); err != nil {
			t.Fatal(err)
		}
	}
	widest := 0
	parts := make([][]Pair, len(ranges))
	for x := 0; x < dim; x++ {
		cands := candidates(full, x)
		widest = max(widest, len(cands))
		for _, k := range []int{1, 10, 100, len(cands)} {
			want := sortedPrefix(cands, k)
			if got := full.TopK(x, k); !samePairs(got, want) {
				t.Fatalf("x=%d k=%d: whole index answers %v, want %v", x, k, got, want)
			}
			for i, ix := range ranges {
				parts[i] = ix.TopK(x, k)
			}
			if got := MergeTopK(parts, k, nil); !samePairs(got, want) {
				t.Fatalf("x=%d k=%d: 3 ranges merge to %v, want %v", x, k, got, want)
			}
		}
	}
	if widest <= 100 {
		t.Fatalf("widest row has %d candidates: k=100 never selected", widest)
	}
}

// TestMergeTopKMatchesSortedConcatenation: the k-way merge equals
// sorting the parts' concatenation, for any number of parts — with and
// without empty ones among them — at k within and beyond the total, on
// the tie-heavy fixture.
func TestMergeTopKMatchesSortedConcatenation(t *testing.T) {
	ix := tieHeavyIndex(rand.New(rand.NewSource(61)), 150, 7)
	dim := ix.Dim()
	for _, n := range []int{1, 2, 3, 17} {
		for _, gaps := range []bool{false, true} {
			ranges := make([]*Index, n)
			for i := range ranges {
				lo, hi := i*dim/n, (i+1)*dim/n
				if gaps { // every other range is empty, its neighbour twice as wide
					lo, hi = i/2*2*dim/n, (i+1)/2*2*dim/n
					if i == n-1 {
						hi = dim
					}
				}
				var err error
				if ranges[i], err = ix.Range(lo, hi); err != nil {
					t.Fatal(err)
				}
			}
			for x := 0; x < dim; x += 7 {
				parts := make([][]Pair, n)
				var concat []Pair
				for i, r := range ranges {
					parts[i] = r.TopK(x, 12)
					concat = append(concat, parts[i]...)
				}
				slices.SortFunc(concat, func(a, b Pair) int { return a.ID - b.ID }) // the oracle takes id order
				for _, k := range []int{0, 1, 12, len(concat), len(concat) + 5} {
					want := sortedPrefix(concat, k)
					got := MergeTopK(parts, k, nil)
					if !samePairs(got, want) {
						t.Fatalf("%d parts (gaps %v) x=%d k=%d: got %v, want %v", n, gaps, x, k, got, want)
					}
				}
			}
		}
	}
}

// TestMergeTopKRejectsUnsortedPart: a part out of top-k order is a
// caller bug the race build panics on.
func TestMergeTopKRejectsUnsortedPart(t *testing.T) {
	if !raceEnabled {
		t.Skip("the check is compiled in under -race only")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an unsorted part went through")
		}
	}()
	MergeTopK([][]Pair{{{ID: 1, Score: 0.5}, {ID: 2, Score: 0.75}}, {{ID: 3, Score: 0.25}}}, 2, nil)
}

// TestTopKIntoSteadyStateAllocs: with warm scratch and a caller buffer,
// a query allocates nothing — over the stored matrix, and over the
// factor, where the row is accumulated before it is scored.
func TestTopKIntoSteadyStateAllocs(t *testing.T) {
	for name, ix := range bothForms(t, rand.New(rand.NewSource(37)), 200, 10) {
		s := new(selection)
		dst := make([]Pair, 0, 10)
		x := 0
		query := func() {
			if got := ix.topKInto(s, x%ix.Dim(), 10, dst); len(got) == 0 || &got[0] != &dst[:1][0] {
				t.Fatalf("%s: x=%d: result %v is not in the caller's buffer", name, x, got)
			}
			x++
		}
		for i := 0; i < ix.Dim(); i++ {
			query() // warm: the scratch grows to the widest row
		}
		if allocs := testing.AllocsPerRun(100, query); allocs != 0 {
			t.Errorf("%s: topKInto allocates %.1f times per query, want 0", name, allocs)
		}
	}
}
