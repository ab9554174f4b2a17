#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash wetperf/run.sh --workload record --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build output, the Go build cache
# and the go command's own configuration and telemetry included, stays
# under .bench_build in that root (or $CARGO_TARGET_DIR when set).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export WETPERF_OUT=$out GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C "$root/wetperf" build -o "$out/wetperf.tmp.$$" .
mv -f "$out/wetperf.tmp.$$" "$out/wetperf"
exec "$out/wetperf" "$@"
