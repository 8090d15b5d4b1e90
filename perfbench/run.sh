#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Run it from the
# repository root. Everything it writes (Go build cache, binary, result
# records, trace files) goes under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export GOMODCACHE="$out/go-path/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$out/corpperf" .)
exec "$out/corpperf" -out "$out" "$@"
