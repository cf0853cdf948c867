#!/usr/bin/env bash
# Builds the benchmark suite from the checkout's sources into
# benchsuite/.bench_build, then runs it with every argument passed through:
#
#   bash benchsuite/run.sh --workload paper-balanced --seed 1 --seconds 15 --trace 0
#   bash benchsuite/run.sh -suite
#
# The Go build cache, temporary files, module cache and the go command's
# config directory (where it keeps telemetry counters) all live under
# .bench_build, so a run writes nothing outside the benchmark's directory
# and reads nothing outside the checkout but the Go toolchain. The first
# build compiles the standard library into that cache; later builds only
# check staleness.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$here/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gomod" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off

(cd "$here" && go build -o "$out/benchsuite" .)
exec "$out/benchsuite" "$@"
