#!/usr/bin/env bash
# Builds the pipebench command from the sources in this checkout and runs it
# with the given arguments. Run it from the repository root:
#
#   bash pipebench/run.sh --workload resident-hot --seed 1 --seconds 40 --trace 0
#
# The binary, the Go build cache, the run's scratch files, span dumps and
# saved results all live under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C pipebench build -o "$out/pipebench" .
exec "$out/pipebench" "$@"
