#!/usr/bin/env bash
# Builds the imind daemon and the benchmark from this checkout, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash imindbench/run.sh --workload warm-reuse --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/imind || ! -f imindbench/go.mod ]]; then
	echo "imindbench: run from the repository root (needs go.mod, cmd/imind and imindbench/)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

go build -o "$out/imind" ./cmd/imind
(cd imindbench && go build -o "$out/imindbench" .)
exec "$out/imindbench" -imind "$out/imind" -work "$out/runs" "$@"
