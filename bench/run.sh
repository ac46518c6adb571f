#!/usr/bin/env bash
# Runs one workload of the benchmark from a checkout of the repository:
#
#	bash bench/run.sh --workload inproc-mix --seed 1 --seconds 48 --trace 0
#
# Everything the Go toolchain writes - build cache, temporary files, the
# binaries - goes under .bench_build/ in the checkout, so a run leaves
# nothing outside it. The first run in a checkout compiles the standard
# library into that cache; later runs only check that nothing changed.
set -eu
cd "$(dirname "$0")/.."
out=$PWD/.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# Fails here, before anything is measured, when bench/ has no repository
# around it: the module replaces dip with the parent directory.
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
