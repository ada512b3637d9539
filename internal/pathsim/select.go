// Top-k selection and merge: the order, the one selection routine and
// the one merge routine every PathSim answer goes through. All of it is
// monomorphic — plain float64 and Pair loops the compiler can inline —
// because the comparison runs once or more per candidate of every query.

package pathsim

import (
	"cmp"
	"runtime"
)

// before reports whether a precedes b in the top-k order: score
// descending, ties by ascending id. Zeros of either sign tie; a NaN
// score ranks below every number (NaNs tie with each other), so the
// order is strict and total over any input.
func before(a, b Pair) bool {
	if a.Score > b.Score {
		return true
	}
	if a.Score < b.Score {
		return false
	}
	// Equal scores, or a NaN on at least one side.
	if an, bn := a.Score != a.Score, b.Score != b.Score; an != bn {
		return bn
	}
	return a.ID < b.ID
}

// comparePairs is the top-k order as a three-way comparison (the shape
// slices.SortFunc and slices.IsSortedFunc take): negative when a
// precedes b. Every PathSim top-k list in the system is in this one
// order, which is what lets MergeTopK reassemble per-shard partial
// answers into the single-index answer bit for bit.
func comparePairs(a, b Pair) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// selection is the scratch of one top-k selection: the candidates in
// the order they were added, which must be ascending id (a CSR row scan
// is), and what selecting among them needs. TopK takes one per call and
// BatchTopKCtx one per block of queries (getSelection); it grows to the
// widest row it has seen and allocates nothing after that.
type selection struct {
	cand []Pair    // candidates with a numeric score, ascending id
	keys []float64 // their scores; the quickselect permutes this copy
	nans []Pair    // candidates with a NaN score, ascending id
	tmp  []Pair    // the sort's second buffer

	// A factor index accumulates the query's row here before it is scored
	// (Index.score): a dense accumulator and the bitmap of the columns
	// touched, both all zero between rows.
	acc  []float64
	mask []uint64
}

// selections keeps released scratch for the next query: one per core
// that can be selecting at once, anything beyond that is left to the
// collector, and so is scratch a rare huge row grew past maxKeptRow
// candidates (1.5 MiB), which would otherwise stay pinned here for
// good. (Not a sync.Pool: that one empties on every collection and,
// under the race detector, drops a quarter of what it is given, so a
// query would now and then allocate its scratch afresh — and the
// allocation contract of BatchTopKCtx is tested under -race too.)
var selections = make(chan *selection, runtime.GOMAXPROCS(0))

const maxKeptRow = 1 << 16

func getSelection() *selection {
	select {
	case s := <-selections:
		return s
	default:
		return new(selection)
	}
}

func putSelection(s *selection) {
	if cap(s.cand) > maxKeptRow {
		return
	}
	select {
	case selections <- s:
	default:
	}
}

// span returns acc and mask sized for a row over n candidate columns
// (the mask never empty, so a row with no entry still has a word).
func (s *selection) span(n int) ([]float64, []uint64) {
	if len(s.acc) < n || s.mask == nil {
		s.acc, s.mask = make([]float64, n), make([]uint64, n/64+1)
	}
	return s.acc, s.mask[:n/64+1]
}

// reset empties the selection for a row of at most m candidates.
func (s *selection) reset(m int) {
	if cap(s.cand) < m {
		m = max(m, 2*cap(s.cand))
		s.cand = make([]Pair, 0, m)
		s.keys = make([]float64, 0, m)
	}
	s.cand, s.keys, s.nans = s.cand[:0], s.keys[:0], s.nans[:0]
}

// add offers one candidate. NaN scores are set aside here, so neither
// the select nor the sort ever compares one: they rank below every
// number and can only fill the places the numbers leave free.
func (s *selection) add(id int, score float64) {
	if score != score {
		s.nans = append(s.nans, Pair{ID: id, Score: score})
		return
	}
	s.cand = append(s.cand, Pair{ID: id, Score: score})
	s.keys = append(s.keys, score)
}

// topK writes the k best candidates, in top-k order, into dst's backing
// array (allocating only when it is too small) — exactly the first k of
// a full sort of the candidates under comparePairs, in O(m + k·log k)
// for m candidates instead of the sort's O(m·log m):
//
//  1. With more than k candidates, quickselect finds the threshold t,
//     the k-th best score, over the flat score copy.
//  2. One pass over the candidates in id order places every score above
//     t first, and after them, of the scores equal to t, the first
//     k − (count above t). Candidates ascend in id, so those are the
//     ties with the lowest ids, already in their final order: the kept
//     set is the top k under (score desc, id asc).
//  3. The survivors above t, still in id order, are sorted by score
//     descending with a stable sort — equal scores stay in id order.
//
// With at most k candidates there is nothing to select and step 3 runs
// on all of them.
func (s *selection) topK(k int, dst []Pair) []Pair {
	out := dst[:0]
	if k <= 0 {
		return out
	}
	if n := min(k, len(s.cand)+len(s.nans)); cap(out) < n {
		out = make([]Pair, 0, n)
	}
	sorted := len(s.cand)
	if sorted <= k {
		out = append(out, s.cand...)
	} else {
		t, above := kthLargest(s.keys, k)
		out, sorted = out[:k], above
		hi, tie := 0, above
		for _, p := range s.cand {
			if p.Score > t {
				out[hi] = p
				hi++
			} else if p.Score == t && tie < k {
				out[tie] = p
				tie++
			}
		}
	}
	if cap(s.tmp) < sorted {
		s.tmp = make([]Pair, max(sorted, 2*cap(s.tmp)))
	}
	sortByScore(out[:sorted], s.tmp[:sorted])
	if free := k - len(out); free > 0 {
		out = append(out, s.nans[:min(free, len(s.nans))]...)
	}
	return out
}

// kthLargest returns the k-th largest value of a, 1 ≤ k ≤ len(a), and
// how many values are strictly greater than it — quickselect with a
// median-of-three pivot, expected O(len(a)); it permutes a. Each round
// splits the range holding the answer three ways around the pivot with
// branch-free passes (the comparison feeds an add, not a jump, so a
// coin-flip pivot costs no mispredictions) and keeps one side. The
// pivot is a value of the range and lands in the middle part, so every
// kept side is strictly shorter. a must hold no NaN.
func kthLargest(a []float64, k int) (kth float64, above int) {
	for len(a) > 12 {
		p := median(a[0], a[len(a)/2], a[len(a)-1])
		g := 0 // a[:g] > p
		for j, v := range a {
			a[j] = a[g]
			a[g] = v
			g += b2i(v > p)
		}
		if k <= g {
			a = a[:g]
			continue
		}
		rest := a[g:]
		e := 0 // rest[:e] == p, rest[e:] < p
		for j, v := range rest {
			rest[j] = rest[e]
			rest[e] = v
			e += b2i(v == p)
		}
		if k <= g+e {
			return p, above + g
		}
		a, k, above = rest[e:], k-g-e, above+g+e
	}
	for i := 1; i < len(a); i++ { // a short range: sort it, descending
		v := a[i]
		j := i
		for ; j > 0 && a[j-1] < v; j-- {
			a[j] = a[j-1]
		}
		a[j] = v
	}
	kth = a[k-1]
	for k--; k > 0 && a[k-1] == kth; k-- {
	}
	return kth, above + k
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// median returns the median of three numbers.
func median(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if c < b {
		b = c
	}
	if a > b {
		return a
	}
	return b
}

// sortByScore sorts p by score, descending and stably, using tmp
// (len(tmp) == len(p)) as its second buffer: insertion-sorted runs
// merged bottom-up, O(n·log n) whatever the input. p holds no NaN.
func sortByScore(p, tmp []Pair) {
	const run = 8
	n := len(p)
	for lo := 0; lo < n; lo += run {
		for i := lo + 1; i < min(lo+run, n); i++ {
			x := p[i]
			j := i
			for ; j > lo && p[j-1].Score < x.Score; j-- {
				p[j] = p[j-1]
			}
			p[j] = x
		}
	}
	src, dst := p, tmp
	for w := run; w < n; w *= 2 {
		for lo := 0; lo < n; lo += 2 * w {
			mid, hi := min(lo+w, n), min(lo+2*w, n)
			i, j, o := lo, mid, lo
			for ; i < mid && j < hi; o++ {
				if src[j].Score > src[i].Score {
					dst[o] = src[j]
					j++
				} else {
					dst[o] = src[i]
					i++
				}
			}
			o += copy(dst[o:], src[i:mid])
			copy(dst[o:], src[j:hi])
		}
		src, dst = dst, src
	}
	if n > 0 && &src[0] != &p[0] {
		copy(p, src)
	}
}
