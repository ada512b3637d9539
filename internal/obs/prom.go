// Prometheus text-format rendering for Hist. Buckets are exported at
// octave granularity — 26 upper bounds from ~2µs doubling to ~68s —
// rather than the histogram's full 16-sub-bucket resolution: 29 lines
// per series keeps /metrics readable while preserving the log-scale
// shape scrapers need for quantile estimation. The bound list is fixed
// at compile time, so the exposition's series set never varies.

package obs

import (
	"fmt"
	"io"
)

// promBounds are the exported le= upper bounds in seconds: the upper
// edge of octave o spans 2^(11+o) nanoseconds.
var promBounds = func() [histOctaves]float64 {
	var b [histOctaves]float64
	for o := 0; o < histOctaves; o++ {
		b[o] = float64(int64(1)<<(11+o)) / 1e9
	}
	return b
}()

// WriteProm renders the histogram as one Prometheus histogram series:
// cumulative <name>_bucket lines per octave bound plus +Inf, then
// <name>_sum (seconds) and <name>_count (equal to +Inf). labels is the
// inner label list without braces (e.g. `endpoint="/v1/rank"`); empty
// means no labels.
func (h *Hist) WriteProm(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	i := 0
	for o := 0; o < histOctaves; o++ {
		for ; i < (o+1)*histSub; i++ {
			cum += h.counts[i].Load()
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatBound(promBounds[o]), cum)
	}
	// +Inf and _count are the buckets just read, not h.n: Observe adds
	// to a bucket before it adds to n, so a scrape between the two adds
	// would print +Inf below the last finite bucket.
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum().Seconds())
		fmt.Fprintf(w, "%s_count %d\n", name, cum)
		return
	}
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, h.Sum().Seconds())
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, cum)
}

// formatBound renders a bound the way %g would, used for both the
// exposition and tests that parse it back.
func formatBound(s float64) string { return fmt.Sprintf("%g", s) }
