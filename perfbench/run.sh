#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build/ and
# runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload bulk_export --seed 1 --seconds 20 --trace 0
# Run it from the root of a checkout. The Go build cache and temporary
# files stay inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "perfbench: no go.mod here; run from a checkout of the repository" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
