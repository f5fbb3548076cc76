#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash wackbench/run.sh --workload web-failover --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# go command's own configuration and telemetry files go to $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout; nothing is fetched over the
# network. Without the repository's sources next to this directory the
# build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/go-cache GOPATH=$out/go-path GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
XDG_CONFIG_HOME=$out/config go -C "$root/wackbench" build -buildvcs=false -trimpath -o "$out/wackbench" .
exec "$out/wackbench" "$@"
