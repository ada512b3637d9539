package obs

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestQuantilePropertyVsSorted is the histogram's accuracy contract:
// against an exact sorted reference over random log-uniform samples,
// every interior quantile lands within the bucket-width error bound,
// and q≤0 / q≥1 clamp to the exact observed min and max.
func TestQuantilePropertyVsSorted(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		h := NewHist()
		n := 20000
		samples := make([]time.Duration, n)
		for i := range samples {
			// Log-uniform over 32µs .. ~16s. Below ~16µs the integer
			// sub-bucket split collapses to whole octaves, so the ~6%
			// bound only holds in the SLO-relevant range.
			exp := 15 + rng.Float64()*19
			samples[i] = time.Duration(int64(math.Exp2(exp)))
			h.Observe(samples[i])
		}
		sorted := slices.Clone(samples)
		slices.Sort(sorted)

		if got := h.Quantile(0); got != sorted[0] {
			t.Errorf("seed %d: Quantile(0) = %v, want exact min %v", seed, got, sorted[0])
		}
		if got := h.Quantile(-0.5); got != sorted[0] {
			t.Errorf("seed %d: Quantile(-0.5) = %v, want clamp to min", seed, got)
		}
		if got := h.Quantile(1); got != sorted[n-1] {
			t.Errorf("seed %d: Quantile(1) = %v, want exact max %v", seed, got, sorted[n-1])
		}
		if got := h.Quantile(1.5); got != sorted[n-1] {
			t.Errorf("seed %d: Quantile(1.5) = %v, want clamp to max", seed, got)
		}
		for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999} {
			got := h.Quantile(q)
			want := sorted[int(q*float64(n-1))]
			if relErr(got, want) > 0.09 {
				t.Errorf("seed %d: Quantile(%g) = %v, exact %v (rel err %.3f)",
					seed, q, got, want, relErr(got, want))
			}
		}
	}
}

func relErr(a, b time.Duration) float64 {
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	return d / float64(b)
}

// TestHistBasics covers the counters and edge cases around empty and
// negative observations.
func TestHistBasics(t *testing.T) {
	h := NewHist()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	h.Observe(-time.Second) // clamps to 0
	h.Observe(2 * time.Millisecond)
	h.Observe(4 * time.Millisecond)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 0 || h.Max() != 4*time.Millisecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if h.Sum() != 6*time.Millisecond {
		t.Fatalf("sum = %v, want 6ms", h.Sum())
	}
	if h.Mean() != 2*time.Millisecond {
		t.Fatalf("mean = %v, want 2ms", h.Mean())
	}
}

// TestWriteProm parses the exposition back: bucket counts must be
// cumulative and monotone, end at the total count, and carry the
// labels verbatim.
func TestWriteProm(t *testing.T) {
	h := NewHist()
	durs := []time.Duration{time.Microsecond, 30 * time.Microsecond, time.Millisecond,
		3 * time.Millisecond, 80 * time.Millisecond, 2 * time.Second}
	for _, d := range durs {
		h.Observe(d)
	}
	var buf bytes.Buffer
	h.WriteProm(&buf, "x_seconds", `endpoint="/v1/rank",stage="cache"`)

	var bucketLines, prev uint64
	var sawInf, sawSum, sawCount bool
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable line %q", line)
		}
		switch {
		case strings.HasPrefix(name, "x_seconds_bucket{"):
			if !strings.Contains(name, `endpoint="/v1/rank",stage="cache",le="`) {
				t.Fatalf("bucket labels wrong: %q", name)
			}
			c, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", val, err)
			}
			if c < prev {
				t.Fatalf("bucket counts not cumulative at %q: %d < %d", name, c, prev)
			}
			prev = c
			bucketLines++
			if strings.Contains(name, `le="+Inf"`) {
				sawInf = true
				if c != uint64(len(durs)) {
					t.Fatalf("+Inf bucket = %d, want %d", c, len(durs))
				}
			}
		case strings.HasPrefix(name, "x_seconds_sum{"):
			sawSum = true
			want := time.Duration(0)
			for _, d := range durs {
				want += d
			}
			got, _ := strconv.ParseFloat(val, 64)
			if diff := got - want.Seconds(); diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("sum = %v, want %v", got, want.Seconds())
			}
		case strings.HasPrefix(name, "x_seconds_count{"):
			sawCount = true
			if val != strconv.Itoa(len(durs)) {
				t.Fatalf("count = %s, want %d", val, len(durs))
			}
		default:
			t.Fatalf("unexpected line %q", line)
		}
	}
	if bucketLines != histOctaves+1 || !sawInf || !sawSum || !sawCount {
		t.Fatalf("exposition incomplete: %d bucket lines (want %d), inf=%v sum=%v count=%v",
			bucketLines, histOctaves+1, sawInf, sawSum, sawCount)
	}

	// Unlabeled form: plain _sum/_count without braces.
	var plain bytes.Buffer
	h.WriteProm(&plain, "y_seconds", "")
	out := plain.String()
	if !strings.Contains(out, "y_seconds_sum ") || !strings.Contains(out, "y_seconds_count ") {
		t.Fatalf("unlabeled exposition malformed:\n%s", out)
	}
	if strings.Contains(out, "{,") || strings.Contains(out, "{}") {
		t.Fatalf("stray label separators in unlabeled exposition:\n%s", out)
	}

	// A scrape between Observe's bucket add and its count add: the
	// buckets already hold an observation the total does not. +Inf and
	// _count must still be at least the last finite bucket.
	torn := NewHist()
	torn.Observe(time.Millisecond)
	torn.counts[histBuckets-1].Add(1) // an Observe that has not reached n yet
	var tb bytes.Buffer
	torn.WriteProm(&tb, "z_seconds", "")
	lines := strings.Split(strings.TrimSpace(tb.String()), "\n")
	last, inf, count := lines[histOctaves-1], lines[histOctaves], lines[histOctaves+2]
	if !strings.HasSuffix(last, "} 2") || inf != `z_seconds_bucket{le="+Inf"} 2` || count != "z_seconds_count 2" {
		t.Fatalf("torn scrape breaks the cumulative rule:\n%s\n%s\n%s", last, inf, count)
	}
}
