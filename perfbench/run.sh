#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file it
# touches (Go build cache, binary, scratch data, span dumps) under
# .bench_build in the current directory, which must be the repository root:
#
#   bash perfbench/run.sh --workload wordcount --seed 1 --seconds 20 --trace 0
#
# The last line of standard output is the JSON result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
