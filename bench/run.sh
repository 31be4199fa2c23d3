#!/usr/bin/env bash
# Builds the end-to-end benchmark harness from source and runs it.
#
#	bash bench/run.sh                                  # every workload, pinned seeds
#	bash bench/run.sh --workload analog --seed 3 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the runs
# leave behind (Go build cache, binary, temporary stores, trace files)
# goes under .bench_build/ in the current directory, and the toolchain
# is kept offline: the harness has no dependency outside this repository.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/harness" .)
exec "$out/harness" "$@"
