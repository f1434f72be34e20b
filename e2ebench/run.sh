#!/usr/bin/env bash
# Builds the end-to-end benchmark and the qsrmine binary from the source
# tree this script sits in, then runs the benchmark with the given flags.
#
# Run from the repository root:
#
#	bash e2ebench/run.sh --workload scene-cli --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write lands under .bench_build/ in the
# current directory (Go build cache, temporary files, binaries, inputs).
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go build -C "$root/e2ebench" -o "$out/e2ebench" .
go build -o "$out/qsrmine" ./cmd/qsrmine
exec "$out/e2ebench" -root "$root" -qsrmine "$out/qsrmine" "$@"
