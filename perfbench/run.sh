#!/usr/bin/env bash
# Builds the sentinel3d benchmark from the checkout it is run in and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload read_retry --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the Go toolchain and the
# benchmark write (build cache, binary, span dumps) stays under
# .bench_build in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -spans "$out/spans" "$@"
