#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Every file the Go toolchain writes (build cache, temporary files, the
# binary) lands in .bench_build/ under the repository root. Run from the
# repository root:
#
#   bash bench/run.sh --workload calibrate --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -reps 3 -out bench/results/new.json -trace .bench_build/trace.json
#   bash bench/run.sh -compare bench/results/baseline-1.json new.json
#
# The bench module imports the repository's packages through a relative
# replace directive, so the build fails (and the script exits non-zero)
# when the bench directory is copied out of the repository.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
    HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
