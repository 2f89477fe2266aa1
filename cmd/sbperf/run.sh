#!/usr/bin/env bash
# Builds sbperf from the checkout it is run in and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/sbperf/run.sh -workload figure2 -seed 1 -seconds 30 -trace 0
#
# The build, the Go build cache, the Go tool's own settings and all
# temporary files (serve-mixed's crash-bundle spool) stay under
# .bench_build/ in the checkout. The Go toolchain is the local one and
# nothing is downloaded: the module has no dependencies.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

go build -o "$build/sbperf" ./cmd/sbperf
exec "$build/sbperf" "$@"
