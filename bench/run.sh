#!/usr/bin/env bash
# Builds the benchmark from this source tree and runs it with the given
# arguments, from the tree's root:
#
#   bash bench/run.sh --workload moe-stream --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary stay under .bench_build/
# at the root, so repeated runs reuse compiled packages and nothing is
# written elsewhere.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp"

export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

(cd "$root/bench" && go build -o "$out/moespark-bench" .)
cd "$root"
exec "$out/moespark-bench" "$@"
