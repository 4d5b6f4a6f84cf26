#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the build writes — the binary and Go's build cache — goes to
# .bench_build/ at the root of the checkout, so nothing is written outside
# it; after the first build a run costs one up-to-date check.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
cd "$here"
go build -o "$build/bench" .
exec "$build/bench" "$@"
