package obs

import (
	"io"
	"sync"
	"testing"
	"time"
)

// TestConcurrentTraceAndScrape hammers the registry from tracer
// goroutines while scrapers concurrently render slowlog snapshots,
// read quantiles, and write the Prometheus exposition. Run under
// -race (the CI race job includes this package); the assertions
// themselves are sanity floors, the race detector is the real check.
func TestConcurrentTraceAndScrape(t *testing.T) {
	stages := []string{"parse", "work", "serialize"}
	reg := NewRegistry(Endpoint{"/a", stages}, Endpoint{"/b", stages})
	reg.log = newSlowlog(16, 8)

	const writers, perWriter = 8, 300
	var wWG, sWG sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wWG.Add(1)
		go func(w int) {
			defer wWG.Done()
			ep := "/a"
			if w%2 == 1 {
				ep = "/b"
			}
			for i := 0; i < perWriter; i++ {
				tr := reg.Family(ep).StartTrace()
				sp := tr.Start("parse")
				sp = tr.Next(sp, "work")
				tr.Note("hit")
				tr.AddTimed(sp, "kernel", time.Duration(i)*time.Nanosecond)
				sp = tr.Next(sp, "serialize")
				tr.End(sp)
				tr.Finish(200)
			}
		}(w)
	}

	// Scrapers: snapshot the rings and render everything they find,
	// concurrently with the writers.
	for r := 0; r < 3; r++ {
		sWG.Add(1)
		go func() {
			defer sWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, tr := range reg.Log().Recent() {
					_ = tr.Snapshot()
				}
				for _, tr := range reg.Log().Slowest() {
					_ = tr.Snapshot()
				}
				for _, f := range reg.Families() {
					for _, st := range f.Stages() {
						h := f.Stage(st)
						_ = h.Quantile(0.99)
						h.WriteProm(io.Discard, "x_seconds", `stage="`+st+`"`)
					}
				}
			}
		}()
	}

	wWG.Wait()
	close(stop)
	sWG.Wait()

	var total uint64
	for _, f := range reg.Families() {
		total += f.Stage("serialize").Count()
	}
	if want := uint64(writers * perWriter); total != want {
		t.Fatalf("serialize observations = %d, want %d", total, want)
	}
	if len(reg.Log().Recent()) == 0 || len(reg.Log().Slowest()) == 0 {
		t.Fatal("slowlog empty after concurrent load")
	}
}
