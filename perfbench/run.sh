#!/usr/bin/env bash
# Builds the Cloudstone benchmark from the checkout's sources and runs it.
# Run it from the repository root:
#
#	bash perfbench/run.sh --workload slave-bound --seed 1 --seconds 36 --trace 0
#
# The Go build cache, module cache, temporary files and toolchain config all
# live under .bench_build/, so a run writes nothing outside the checkout.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build_dir="$(pwd)/.bench_build"
mkdir -p "$build_dir/tmp"

export GOCACHE="$build_dir/gocache"
export GOPATH="$build_dir/gopath"
export XDG_CONFIG_HOME="$build_dir/config"
export GOTMPDIR="$build_dir/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$bench_dir" && go build -o "$build_dir/perfbench" .) >&2
exec "$build_dir/perfbench" "$@"
