#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash hlbench/run.sh --workload gwrite-colo --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artefact (the Go build cache
# and the binary) lives under .bench_build/ in that root, so the benchmark
# reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local
(cd "$root/hlbench" && go build -o "$out/hlbench" .) >&2
exec "$out/hlbench" "$@"
