#!/usr/bin/env bash
# Builds and runs the serving-stack benchmark. Run it from the root of a
# checkout:
#
#   bash stackbench/run.sh --workload browse|funnel|crawl --seed N --seconds S --trace 0|1
#
# The Go build cache, the binary and the span files stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
STACKBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
export STACKBENCH_COMMIT
(cd "$root/stackbench" && go build -o "$out/stackbench" .)
exec "$out/stackbench" "$@"
