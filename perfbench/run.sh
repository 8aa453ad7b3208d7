#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload closedloop --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-trimpath GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
