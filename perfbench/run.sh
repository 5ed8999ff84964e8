#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload lockds --seed 42 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, GOPATH, the Go tool's
# config directory and the benchmark's own working files.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOENV=off
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"

go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
