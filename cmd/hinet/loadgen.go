// hinet loadgen: the deterministic load-generation and capacity-
// planning front end over internal/loadgen. Modes, composable
// left-to-right:
//
//	(default)            generate a schedule and run it against a server
//	-schedule-only FILE  write the generated schedule as a JSONL trace and exit
//	-record FILE         run sequentially, record status+digests into FILE
//	-replay FILE         replay a recorded trace (sequential, digest-checked)
//	-sweep               stepped-rate saturation sweep; report the SLO knee
//
// With no -server URL the harness boots an in-process server from the
// same -seed/-papers, which is also how the record/replay golden test
// runs in CI; -pprof exposes its profiles, so a load run is profiled in
// one command. Reports land in -out as JSON (schema hinet-serve/1).
package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"hinet/internal/dblp"
	"hinet/internal/loadgen"
	"hinet/internal/serve"
	"hinet/internal/stats"
)

// loadgenFlags holds what loadgen's own flags set: the schedule, run
// and SLO options they bind into, and the values that pick the mode.
type loadgenFlags struct {
	cfg                               loadgen.Config
	run                               loadgen.RunOptions
	slo                               loadgen.SLO
	server, mix, paths                string
	record, replay, out, scheduleOnly string
	sweep, strict                     bool
	sweepSteps                        int
	stepDuration                      time.Duration
}

// loadgenServeOptions configures the in-process server a run without
// -server boots from serve's flags: the seed, corpus, -k, cache,
// workers and -pprof. It listens on -addr only when that was given;
// otherwise on a free loopback port.
func loadgenServeOptions(so serve.Options, addrGiven bool) serve.Options {
	opts := serve.Options{Addr: "127.0.0.1:0", Seed: so.Seed, Models: so.Models,
		CacheCapacity: so.CacheCapacity, Workers: so.Workers, Pprof: so.Pprof}
	if addrGiven {
		opts.Addr = so.Addr
	}
	return opts
}

// runLoadgen runs loadgen's mode; so configures the in-process server
// booted when there is no -server.
func runLoadgen(f loadgenFlags, so serve.Options) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "hinet loadgen: %v\n", err)
		os.Exit(1)
	}

	if f.mix != "" {
		m, err := loadgen.ParseMix(f.mix)
		if err != nil {
			fail(err)
		}
		f.cfg.Mix = m
	}
	if f.paths != "" {
		for _, p := range strings.Split(f.paths, ",") {
			f.cfg.Paths = append(f.cfg.Paths, strings.TrimSpace(p))
		}
	}

	// The keyspace comes from a locally generated same-seed corpus — the
	// `hinet ingest` convention: object names resolve identically on any
	// server built from the same seed and size. A generated schedule and
	// a sweep both draw from it; a replay alone needs none.
	var ks *loadgen.Keyspace
	if f.replay == "" || f.sweep {
		var err error
		if ks, err = loadgen.NewKeyspace(dblp.Generate(stats.NewRNG(f.cfg.Seed), so.Models.Corpus), f.cfg.Paths); err != nil {
			fail(err)
		}
	}

	var tr *loadgen.Trace
	if f.replay != "" {
		rf, err := os.Open(f.replay)
		if err != nil {
			fail(err)
		}
		tr, err = loadgen.ParseTrace(rf)
		rf.Close()
		if err != nil {
			fail(err)
		}
		fmt.Printf("replaying %d events from %s\n", len(tr.Events), f.replay)
	} else {
		var err error
		if tr, err = loadgen.Generate(f.cfg, ks); err != nil {
			fail(err)
		}
		if f.scheduleOnly != "" {
			if err := writeTraceFile(f.scheduleOnly, tr); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %d scheduled events to %s\n", len(tr.Events), f.scheduleOnly)
			return
		}
	}

	// Target: remote URL, or an in-process server from the same seed.
	var target loadgen.Target
	if f.server != "" {
		target = loadgen.NewTarget(f.server)
	} else {
		fmt.Printf("booting in-process server (seed %d)...\n", so.Seed)
		s := serve.New(so)
		bound, err := s.Start()
		if err != nil {
			fail(err)
		}
		if so.Pprof {
			fmt.Printf("profiles at http://%s/debug/pprof/\n", bound)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		}()
		target = loadgen.NewTarget("http://" + bound)
	}

	slo, def := f.slo, loadgen.DefaultSLO()
	if slo.P99 <= 0 {
		slo.P99 = def.P99
	}
	if slo.MaxErrorRate <= 0 {
		slo.MaxErrorRate = def.MaxErrorRate
	}

	f.run.Record = f.record != ""
	f.run.CheckDigests = f.replay != ""
	if f.cfg.Arrival == loadgen.ArrivalClosed && f.run.Concurrency == 0 {
		f.run.Concurrency = 8
	}
	if f.replay != "" && f.run.Concurrency == 0 {
		// Replays are sequential by default: the recorded digests assume
		// the recorded ingest/query interleaving.
		f.run.Concurrency = 1
	}
	res := loadgen.Run(target, tr.Events, f.run)

	if f.record != "" {
		tr.Header.Concurrency = 1
		if err := writeTraceFile(f.record, tr); err != nil {
			fail(err)
		}
		fmt.Printf("recorded %d events (status+digest) to %s\n", len(tr.Events), f.record)
	}

	report := loadgen.BuildReport(f.cfg, res, slo)

	if f.sweep {
		fmt.Printf("saturation sweep: %d steps of %s, doubling from %g rps\n",
			f.sweepSteps, f.stepDuration, f.cfg.Rate)
		sw, err := loadgen.RunSweep(target, f.cfg, ks, slo,
			f.sweepSteps, f.stepDuration, func(st loadgen.SweepStep) {
				verdict := "pass"
				if !st.Pass {
					verdict = st.Violation
				}
				fmt.Printf("  step %8.0f rps target: achieved %8.1f rps  p99 %8s  err %5.2f%%  %s\n",
					st.TargetRPS, st.AchievedRPS, time.Duration(st.P99US)*time.Microsecond,
					st.ErrorRate*100, verdict)
			})
		if err != nil {
			fail(err)
		}
		report.Sweep = sw
		if sw.KneeRPS > 0 {
			fmt.Printf("knee at %g rps offered; capacity %.1f rps within SLO\n", sw.KneeRPS, sw.CapacityRPS)
		} else {
			fmt.Printf("no knee found up to the last step; capacity >= %.1f rps\n", sw.CapacityRPS)
		}
	}

	printSummary(res, report)

	if f.out != "" {
		of, err := os.Create(f.out)
		if err != nil {
			fail(err)
		}
		if err := report.WriteJSON(of); err != nil {
			fail(err)
		}
		if err := of.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("report written to %s\n", f.out)
	}

	if f.strict {
		switch {
		case res.Requests == 0:
			fail(fmt.Errorf("strict: no requests completed"))
		case res.Errors > 0:
			fail(fmt.Errorf("strict: %d unexpected errors (first: %s)", res.Errors, firstDetail(res)))
		case res.Mismatches > 0:
			fail(fmt.Errorf("strict: %d replay mismatches (first: %s)", res.Mismatches, firstDetail(res)))
		}
	}
}

func firstDetail(res *loadgen.RunResult) string {
	if len(res.MismatchDetails) > 0 {
		return res.MismatchDetails[0]
	}
	return "no detail captured"
}

func writeTraceFile(path string, tr *loadgen.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := loadgen.WriteTrace(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cacheHitText formats Report.CacheHit, whose -1 means the run saw no
// cache lookups to take a rate of (cache disabled, or no /metrics).
func cacheHitText(rate float64) string {
	if rate < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", rate*100)
}

func printSummary(res *loadgen.RunResult, report *loadgen.Report) {
	fmt.Printf("%d requests in %s: %.1f rps, %d errors (%.2f%%), %d shed, cache hit %s\n",
		res.Requests, res.Duration.Round(time.Millisecond), res.ThroughputRPS(),
		res.Errors, res.ErrorRate()*100, res.Shed, cacheHitText(report.CacheHit))
	if res.ShedServer > 0 || res.Timeouts > 0 || res.Degraded > 0 {
		fmt.Printf("overload: %d shed by server (503), %d deadline-exceeded (504), %d degraded (brownout)",
			res.ShedServer, res.Timeouts, res.Degraded)
		if res.Admitted.Count() > 0 {
			fmt.Printf("; admitted p99 %s", res.Admitted.Quantile(0.99).Round(time.Microsecond))
		}
		fmt.Println()
	}
	fmt.Printf("%-10s %9s %9s %9s %9s %9s %9s\n", "cohort", "requests", "p50", "p90", "p99", "p999", "max")
	for _, e := range report.Endpoints {
		fmt.Printf("%-10s %9d %9s %9s %9s %9s %9s\n", e.Cohort, e.Requests,
			time.Duration(e.P50US)*time.Microsecond, time.Duration(e.P90US)*time.Microsecond,
			time.Duration(e.P99US)*time.Microsecond, time.Duration(e.P999US)*time.Microsecond,
			time.Duration(e.MaxUS)*time.Microsecond)
	}
	fmt.Printf("SLO verdict: %s\n", report.Verdict)
	for _, d := range res.MismatchDetails {
		fmt.Printf("  detail: %s\n", d)
	}
}
