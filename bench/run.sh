#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout: bash bench/run.sh [flags]  (see README.md).
# Everything the build and the run write — Go's build cache, temporary files,
# the binary — stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/bench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "bench/run.sh: run from the root of a checkout that holds the retrasyn module" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off

go build -C "$root/bench" -buildvcs=false -o "$build/retrasyn-bench" .
exec "$build/retrasyn-bench" "$@"
