#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it there with the given arguments. The Go build cache is
# kept in the same directory, so nothing is written outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
# The binary records the checkout's VCS revision when git can report it;
# where it cannot (not a repository, or one git refuses to read), the
# build goes without.
(cd "$root/bench" && { go build -o "$build/sgxbench" . 2>/dev/null || go build -buildvcs=false -o "$build/sgxbench" .; })
cd "$root"
exec "$build/sgxbench" "$@"
