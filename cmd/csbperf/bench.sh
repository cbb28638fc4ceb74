#!/usr/bin/env bash
# Builds csbperf from source and runs it with the given arguments. Run it
# from the repository root; everything the build writes (the Go build cache
# and the binary) stays under .bench_build/ in that directory.
#
#   bash cmd/csbperf/bench.sh --workload stores-csb --seed 1 --seconds 10 --trace 0
#   bash cmd/csbperf/bench.sh run --seconds 60 --out a1.json
#   bash cmd/csbperf/bench.sh compare a*.json -- b*.json
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
# The go command's configuration and local telemetry live under here too.
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

go -C "$root/cmd/csbperf" build -o "$build/csbperf" .
exec "$build/csbperf" "$@"
