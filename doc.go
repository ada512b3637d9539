// Package hinet is the module root of a Go reproduction of "Mining
// knowledge from databases: an information network analysis approach"
// (Han, Sun, Yan, Yu — SIGMOD 2010 tutorial).
//
// The library lives under internal/ (see README.md for the package
// map): internal/sparse provides the parallel CSR kernel engine, hin
// and graph the network representations, internal/metapath the
// meta-path engine (spec parsing, cost-based chain planning, Gram
// factorization, materialization caching) every commuting-matrix
// product runs through, and the remaining packages the reproduced
// techniques — RankClus, NetClus, PathSim, SimRank, LinkClus, SCAN,
// CrossMine, CrossClus, DISTINCT, TruthFinder, network OLAP and
// transductive classification. internal/serve layers an online query
// service on top (model snapshots, result caching, scatter-gathered
// top-k, arbitrary path= meta-path queries; run it with `hinet
// serve`). Entry points are cmd/hinet, cmd/experiments and the
// walkthroughs in examples/.
//
// This file only carries the module-level documentation; the root
// directory's test files (bench_test.go, integration_test.go) hold the
// cross-package benchmark and integration suites.
package hinet
