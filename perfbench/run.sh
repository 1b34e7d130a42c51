#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, forwarding
# every argument (--workload, --seed, --seconds, --trace). Run it from the
# repository root. Everything the build and the run write goes under
# .bench_build in the current directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export TMPDIR="$build/tmp"

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --data "$build/data" "$@"
