#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload fleet-cold --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare base.jsonl change.jsonl
#
# The Go build cache, the Go config directory, the toolchain's temporary
# files and the binary all live under .bench_build/ in the working
# directory, so a run writes nothing outside it. The build is offline: the
# harness needs nothing beyond the standard library and the repository.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
