#!/usr/bin/env bash
# Builds wirebench from the sources of the checkout it is run in and runs
# it with the given arguments, from the checkout root:
#
#   bash wirebench/run.sh --workload interactive --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd wirebench && go build -o "$out/wirebench" .)
exec "$out/wirebench" "$@"
