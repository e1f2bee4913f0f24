#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in,
# then runs one workload:
#
#   bash perfbench/run.sh --workload beff_t3e64 --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, scratch caches and stores) stays under
# $CARGO_TARGET_DIR, default .bench_build. Build output goes to stderr,
# so the last line of stdout is the benchmark's JSON result.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# Build under a private name and rename, so a concurrent run never
# executes a half-written binary.
(cd perfbench && go build -o "$out/perfbench.$$" .) >&2
mv -f "$out/perfbench.$$" "$out/perfbench"
exec "$out/perfbench" --workdir "$out" "$@"
