#!/usr/bin/env bash
# Builds the perfbench command from source and runs it with the given
# arguments, from the root of a checkout of this repository:
#
#   bash perfbench/run.sh --workload cells-pooled --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# temporary database directories) stays under .bench_build/ in the
# checkout. The build needs the repository's own sources: run from a
# directory that holds only perfbench/, it fails before printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOENV=off
export XDG_CONFIG_HOME="$build/config" # the go command's telemetry counters
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
