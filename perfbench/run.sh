#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it, e.g.
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout. Build output goes to standard error, so the last
# line of standard output is the benchmark's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS= GOWORK=off GOPROXY=off \
	GOSUMDB=off GOTOOLCHAIN=local GOENV=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --tmp "$out/tmp" "$@"
