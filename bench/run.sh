#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything a run writes stays inside the checkout, under .bench_build/: the
# Go build cache, the toolchain's own per-user files (hence HOME), the binary
# and the benchmark's temporary files.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/home"
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOPATH="$build/gopath" \
	GOCACHE="$build/gocache" GOTOOLCHAIN=local \
	go build -C bench -o "$build/htlbench" .
exec "$build/htlbench" -workdir "$build" "$@"
