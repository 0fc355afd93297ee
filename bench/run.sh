#!/bin/sh
# Builds the benchmark from source inside the checkout and runs it with the
# driver's arguments. Everything the build writes — the binary and Go's
# build cache — stays under .bench_build, so a run reads and writes only
# inside its checkout.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
[ -n "${HOME:-}" ] || export GOPATH="$build/gopath"
cd "$root"
go build -C bench -o "$build/waterwise-bench" .
exec "$build/waterwise-bench" "$@"
