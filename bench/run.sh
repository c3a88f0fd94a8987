#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the build writes stays under .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" "$@"
