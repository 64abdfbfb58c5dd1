#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the checkout root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
if ! (cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 1
fi
exec "$build/perfbench" "$@"
