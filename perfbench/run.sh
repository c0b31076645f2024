#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, CPU profiles, trace files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
