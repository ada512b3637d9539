package main

import (
	"slices"
	"strconv"
	"time"
)

// The box this benchmark gates on is a small shared VM. Its speed for
// code that touches memory — a handler call, a JSON encode — swings by
// tens of percent from one second to the next with the neighbours' load,
// so raw times taken seconds apart do not compare, and a median over a
// run that fits the driver's budget does not average the swings out.
//
// Every timed request is therefore followed by a fixed piece of reference
// work, timed the same way. A round is cut into short windows; each
// window's times are scaled by how slow the reference work ran inside
// that window, and a metric is the median over all windows of a run. The
// reported numbers are thus times on a host where the reference work
// always takes refNanos; the raw medians are printed next to them.

// refNanos and burstNanos are the reference clock: what refWork takes on
// the gating host at its usual pace, between two requests (whose replies
// leave the caches cold) and back to back in a burst. They only fix the
// unit, keeping scaled numbers close to what the clock reads on a quiet
// host.
const (
	refNanos   = 3000.0
	burstNanos = 800.0
)

// window is how finely a round is cut for scaling: short enough to follow
// the host, long enough to hold hundreds of requests.
const window = 250 * time.Millisecond

// refTable is 16 MiB of indices into itself, without pointers: chasing it
// misses the cache the way walking a server's heap does, and the garbage
// collector never scans it.
var refTable = func() []uint32 {
	t := make([]uint32, 1<<22)
	x := uint32(1)
	for i := range t {
		x = x*1664525 + 1013904223
		t[i] = x >> 10
	}
	return t
}()

// refWork is a few microseconds of what serving a request is made of —
// dependent loads that miss the cache, integer and float formatting, byte
// appends — using nothing from the repository under test.
func refWork(buf []byte, k uint32) ([]byte, uint32) {
	buf = buf[:0]
	for r := 0; r < 8; r++ {
		k = refTable[k&(1<<22-1)]
		buf = strconv.AppendUint(append(buf, `{"id": `...), uint64(k), 10)
		buf = strconv.AppendFloat(append(buf, `, "score": `...), 1/float64(k+3), 'g', -1, 64)
		buf = append(buf, '}')
	}
	return buf, k
}

// pacer runs and times the reference work for one goroutine.
type pacer struct {
	buf []byte
	k   uint32
}

func (p *pacer) tick() int64 {
	t0 := time.Now()
	p.buf, p.k = refWork(p.buf, p.k)
	return int64(time.Since(t0))
}

// pace reads the host's pace off ascending ticks: their lower quartile. A
// tick that lost the processor, or ran on caches a long request had just
// emptied, says nothing about the host; over ten-run comparisons the lower
// quartile never spread a metric more than no scaling did, while the mean
// and the median did on the workloads with long requests.
func pace(sorted []int64) float64 { return float64(percentile(sorted, 0.25)) }

// burst is the pace over n ticks run now, in units of refNanos, for timing
// single long calls (a boot, an ingest probe) that hold no ticks inside.
func (p *pacer) burst(n int) float64 {
	ticks := make([]int64, n)
	for i := range ticks {
		ticks[i] = p.tick()
	}
	slices.Sort(ticks)
	return pace(ticks) * refNanos / burstNanos
}
