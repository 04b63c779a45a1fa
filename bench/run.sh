#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Everything the
# build writes (binary, Go build cache, temp files) stays under .bench_build/
# in the checkout root; the arguments go to the program unchanged.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOWORK=off
(cd "$root/bench" && go build -o "$build/ft2bench" .)
cd "$root"
exec "$build/ft2bench" "$@"
