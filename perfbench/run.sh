#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-flare --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every other file the toolchain writes
# stay under .bench_build/ in the current directory. The build needs the
# repository's own Go module one level above this script; without it the
# build fails and the script exits non-zero before printing a result.
set -euo pipefail

src=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$src" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
