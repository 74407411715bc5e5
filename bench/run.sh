#!/usr/bin/env bash
# Builds pnbench and pnserve from this checkout, then runs pnbench from the
# repository root with the arguments given, e.g.
#
#	bash bench/run.sh --workload cold-open --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, both binaries, the per-workload server
# directories and the traced-run output.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gotmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOPROXY=off

go build -C bench -o "$build/pnbench" ./pnbench
go build -o "$build/pnserve" ./cmd/pnserve
exec "$build/pnbench" -pnserve "$build/pnserve" -workdir "$build" "$@"
