#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload serve-durable --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Build outputs, the Go build cache,
# job stores and traces all stay under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" || ! -d "$root/internal/server" ]]; then
	echo "perfbench: run from the root of a waitfree checkout (its go.mod and internal/ are missing here)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= GOENV=off

(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" --work "$build/work" --trace-dir "$build/traces" "$@"
