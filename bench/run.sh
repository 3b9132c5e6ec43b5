#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (Go build and module caches, the go
# command's own config and telemetry counters, the binary) stays under
# .bench_build/ at the checkout root, so a run touches nothing outside
# its checkout and works without $HOME or a network.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$bench" && XDG_CONFIG_HOME="$build/config" go build -o "$build/icd-bench" .) >&2
cd "$root"
exec "$build/icd-bench" "$@"
