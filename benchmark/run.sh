#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on.
# Run from the repository root: bash benchmark/run.sh [flags].
#
# The binary, Go's build cache, its temporary files and its per-user
# configuration (where the toolchain keeps its telemetry counters) live in
# .bench_build/ at the root of the checkout, so that nothing is written
# outside it. The benchmark is
# a module of its own (benchmark/go.mod) that takes the engine from the
# parent directory; in a directory without the engine's sources the build
# fails and this script exits non-zero without printing a result.
set -euo pipefail
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config"
go build -C "$root/benchmark" -o "$out/dbspinner-bench" .
exec "$out/dbspinner-bench" "$@"
