#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
# Run it from the repository root:
#
#   bash e2ebench/run.sh --workload paper-small --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root: the binary, the Go build cache, server state
# directories and traces.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the root of a gpustl checkout (go.mod, internal/ and e2ebench/ missing)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/home" "$build/gopath"
# The Go toolchain's caches and settings live in .bench_build too.
(
	cd "$root/e2ebench"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS= \
		GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off \
		go build -o "$build/e2ebench" .
)
exec "$build/e2ebench" "$@"
