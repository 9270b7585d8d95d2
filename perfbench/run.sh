#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 6 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout (Go build cache, temporary files, the binary, service
# state directories).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/sim" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a ladder checkout (go.mod, internal/ and perfbench/ needed)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
# The simulator never reads the table cache here: set-up is timed cold.
unset LADDER_TABLE_CACHE LADDER_DEBUG

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
