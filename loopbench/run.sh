#!/usr/bin/env bash
# Builds loopbench from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash loopbench/run.sh --workload add-open --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, trace
# spans) goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/loopbench"
mkdir -p "$out/gocache" "$out/modcache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

(cd "$src" && go build -o "$out/loopbench" .)
exec "$out/loopbench" "$@"
