package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hinet/internal/loadgen"
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
// no -addr it listens on a free loopback port, not serve's :8080. It
// takes none of serve's admission options.
func TestLoadgenServeOptions(t *testing.T) {
	flags := serve.Options{Addr: ":8080", MaxConcurrent: 3, SLOTargetP99: time.Second}
	if opts := loadgenServeOptions(flags, false); opts.Addr != "127.0.0.1:0" || opts.Pprof ||
		opts.MaxConcurrent != 0 || opts.SLOTargetP99 != 0 {
		t.Errorf("no flags: %+v; want Addr 127.0.0.1:0 and nothing else set", opts)
	}
	// -papers scales the authors with the papers: 10 000 papers is the
	// benchmark's 4 000-author corpus.
	flags.Models.Corpus = corpusConfig(10_000)
	if c := loadgenServeOptions(flags, false).Models.Corpus; c.Papers != 10_000 || c.AuthorsPerArea != 1_000 {
		t.Errorf("-papers 10000: %d papers, %d authors an area; want 10000 and 1000", c.Papers, c.AuthorsPerArea)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	s := serve.New(loadgenServeOptions(serve.Options{Addr: addr, Pprof: true}, true))
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

// A strict run that fails on an unexpected status reports the request
// and the status as its first detail, not "no detail captured".
func TestStrictDetailNamesStatus(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	defer ts.Close()
	res := loadgen.Run(loadgen.NewTarget(ts.URL), []loadgen.Event{{Cohort: "rank", Path: "/v1/rank?top=3"}}, loadgen.RunOptions{})
	if res.Errors != 1 {
		t.Fatalf("%d errors, want 1", res.Errors)
	}
	if got, want := firstDetail(res), "GET /v1/rank?top=3: status 404"; got != want {
		t.Errorf("first detail %q, want %q", got, want)
	}
}
