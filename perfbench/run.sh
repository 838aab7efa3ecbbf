#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload abort-tail --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build cache, the benchmark binary,
# scratch journals and span traces all stay under .bench_build/ there, and
# the build uses only the local toolchain and this checkout's modules.
set -euo pipefail

src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$PWD/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
