#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 40 --trace 0
#
# The build cache, the Go tool's own state (GOPATH, and its config and
# telemetry under XDG_CONFIG_HOME) and the binary stay under .bench_build/
# in the current directory, and no module or toolchain is downloaded.
set -euo pipefail
out=.bench_build
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" XDG_CONFIG_HOME="$PWD/$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "../$out/perfbench-bin" .
exec "$out/perfbench-bin" "$@"
