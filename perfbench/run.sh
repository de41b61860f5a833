#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Every build and run
# artefact stays under .bench_build/ at the root of the checkout; the
# benchmark needs no network and fetches nothing.
#
#   bash perfbench/run.sh --workload curation --seed 1 --seconds 10 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOENV=off
export XDG_CONFIG_HOME="$build/config" # where the go command keeps telemetry
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" -out "$build" "$@"
