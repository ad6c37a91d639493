#!/usr/bin/env bash
# Builds the esperf benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash esperf/run.sh --workload lb-archive --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch archives
# all stay under $CARGO_TARGET_DIR (default .bench_build) in the current
# directory.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -trimpath -o "$out/esperf" .)
exec "$out/esperf" -workdir "$out/esperf-work" "$@"
