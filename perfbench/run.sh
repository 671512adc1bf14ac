#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, from the
# root of a checkout of the repository:
#
#   bash perfbench/run.sh --workload redis-snap --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and traced-run artifacts all go under
# .bench_build/ in the current directory.
set -euo pipefail
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
here=$(cd "$(dirname "$0")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build"
# XDG_CONFIG_HOME keeps the go command's own files (telemetry counters,
# go env settings) inside the checkout too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
