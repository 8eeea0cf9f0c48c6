#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload collect --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the build and the run
# write (Go build cache, temp files, the binary, stores, spools, trace
# files) stays under .bench_build/ in the current directory.
set -euo pipefail

root="$PWD"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOWORK=off

fresh=0
[ -x "$build/perfbench" ] || fresh=1
go -C "$root/perfbench" build -o "$build/perfbench" .
# The first build writes a Go build cache of ~100 MB. Flush it before
# measuring, or its writeback competes with the first runs' own disk
# and CPU work.
if [ "$fresh" = 1 ]; then
  sync -f "$build"
fi
exec "$build/perfbench" --workdir "$build/work" "$@"
