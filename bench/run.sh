#!/usr/bin/env bash
# Builds dsbench from source and runs it from the repository root with
# the given arguments, e.g.
#
#   bash bench/run.sh                                  # every workload, 3 runs each
#   bash bench/run.sh --workload fig7 --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -compare a.json b.json
#
# Everything the build writes (Go build cache, binary, spans) stays in
# .bench_build/ under the repository root; nothing is downloaded.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -C bench -o "$out/dsbench" .
exec "$out/dsbench" "$@"
