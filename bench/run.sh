#!/bin/sh
# The benchmark driver's entry point: `go run ./bench`, with the Go build
# cache and temp files kept inside the checkout (the driver's contract is
# to read and write nowhere else) and the toolchain pinned to the 2 cores
# the benchmark is sized for.
set -e
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/go-cache" GOTMPDIR="$PWD/.bench_build/tmp" GOMAXPROCS=2
exec go run ./bench "$@"
