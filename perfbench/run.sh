#!/usr/bin/env bash
# Builds the benchmark program from the checkout it is run in and executes it
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload publish --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build in the
# current directory: the Go build cache, temp files, the binary, snapshot
# data directories and trace files.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --root "$root" --build-dir "$build" "$@"
