package main

import (
	"context"
	"net"
	"net/http"
	"testing"

	"hinet/internal/serve"
)

// Report.CacheHit is -1 when the run had no cache lookups (`-cache -1`);
// the summary line must not render that as a percentage.
func TestCacheHitText(t *testing.T) {
	for _, c := range []struct {
		rate float64
		want string
	}{{-1, "n/a"}, {0, "0%"}, {0.956, "96%"}, {1, "100%"}} {
		if got := cacheHitText(c.rate); got != c.want {
			t.Errorf("cacheHitText(%v) = %q, want %q", c.rate, got, c.want)
		}
	}
}

// The in-process server takes -pprof, and -addr when it was given; with
// no -addr it listens on a free loopback port, not serve's :8080.
func TestLoadgenServeOptions(t *testing.T) {
	if opts := loadgenServeOptions(loadgenFlags{}); opts.Addr != "127.0.0.1:0" || opts.Pprof {
		t.Errorf("no flags: Addr %q, Pprof %v; want 127.0.0.1:0 and false", opts.Addr, opts.Pprof)
	}
	// -papers scales the authors with the papers: 10 000 papers is the
	// benchmark's 4 000-author corpus.
	if c := loadgenServeOptions(loadgenFlags{papers: 10_000}).Models.Corpus; c.Papers != 10_000 || c.AuthorsPerArea != 1_000 {
		t.Errorf("-papers 10000: %d papers, %d authors an area; want 10000 and 1000", c.Papers, c.AuthorsPerArea)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	s := serve.New(loadgenServeOptions(loadgenFlags{addr: addr, pprof: true}))
	defer s.Shutdown(context.Background())
	bound, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	if bound != addr {
		t.Errorf("server bound %s, want -addr %s", bound, addr)
	}
	resp, err := http.Get("http://" + bound + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline = %d, want 200", resp.StatusCode)
	}
}
