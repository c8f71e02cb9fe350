#!/bin/sh
# Entry point BENCHMARK.json names: runs the benchmark from the root of a
# checkout with the Go build cache and temporary files kept inside it.
set -e
root=$(pwd)
mkdir -p "$root/.bench_build/tmp"
GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp" \
	exec go run ./bench "$@"
