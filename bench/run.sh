#!/bin/sh
# Builds the benchmark and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload analyze-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, Go cache,
# temporary file and trace lands under .bench_build/, so nothing
# outside the checkout is written, and the Go toolchain stays offline.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/bench" build -o "$out/bench" .
exec "$out/bench" -root "$root" "$@"
