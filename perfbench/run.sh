#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's source and runs it:
#
#   bash perfbench/run.sh --workload lockstep-hub --seed 1 --seconds 10 --trace 0
#
# Run from the root of a checkout. Everything the build and the run
# write (Go build cache, binary, WAL directories, span files) stays under
# .bench_build/ in that checkout. The last line of standard output is the
# JSON result; see perfbench/README.md.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/serve" ]; then
    echo "perfbench: run from the root of a checkout of the program" >&2
    exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
    GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS= GOPROXY=off \
    GOSUMDB=off GOTOOLCHAIN=local GOWORK=off

go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out" "$@"
