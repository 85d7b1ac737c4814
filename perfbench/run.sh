#!/usr/bin/env bash
# Builds the benchmark and the binaries it drives from source, then
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload inproc-lubm --seed 1 --seconds 20 --trace 0
#
# Everything it writes stays under .bench_build/ in the current
# directory, the Go build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= \
  GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR=
mkdir -p "$out/bin" "$out/work"

go build -o "$out/bin/" ./cmd/lusail-server ./cmd/endpoint ./cmd/datagen
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
