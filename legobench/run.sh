#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash legobench/run.sh --workload flow-setup --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the runs' durable state stay
# under .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$out/legobench" .)
exec "$out/legobench" "$@"
