#!/usr/bin/env bash
# Builds the Streak benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash streakbench/run.sh --workload table1-pd --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# traced runs' span files all go to .bench_build/ under the current
# directory, so the run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off

(cd "$here" && go build -buildvcs=false -o "$out/streakbench" .)
exec "$out/streakbench" "$@"
