#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload scan-groupby --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artifact, Go cache, spill file and
# generated input stays under the build directory ($CARGO_TARGET_DIR, default
# .bench_build), so nothing outside the checkout is read or written.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/config" "$build/tmp"

export GOCACHE="$build/gocache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOTELEMETRY=off

go -C "$root/perfbench" build -o "$build/perfbench" .

work="$(mktemp -d "$build/tmp/run.XXXXXX")"
trap 'rm -rf "$work"' EXIT
TMPDIR="$work" "$build/perfbench" --workdir "$work" "$@"
