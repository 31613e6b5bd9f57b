#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build leaves
# behind (compiler cache, module cache, toolchain counters, the binary) and
# everything a run writes stays under .bench_build in the checkout root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOFLAGS=-modcacherw go build -o "$build/bench" .
)
cd "$root"
exec "$build/bench" "$@"
