#!/usr/bin/env bash
# Builds trackd and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run it from the root of the checkout:
#
#   bash trackbench/run.sh --workload hh-http --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# the Go build cache, the binaries and the span files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/trackd" ]]; then
	echo "trackbench: run from the root of a disttrack checkout (no go.mod or cmd/trackd here)" >&2
	exit 1
fi
work="$root/.bench_build/trackbench"
mkdir -p "$work/bin" "$work/home" "$work/tmp"
export HOME="$work/home" GOCACHE="$work/gocache" GOMODCACHE="$work/gomod" \
	GOTMPDIR="$work/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	GOTELEMETRY=off

go build -o "$work/bin/trackd" ./cmd/trackd
go -C trackbench build -o "$work/bin/trackbench" .
exec "$work/bin/trackbench" -trackd "$work/bin/trackd" -out "$work" "$@"
