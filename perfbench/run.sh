#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload events --seed 1 --seconds 44 --trace 0
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail
root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
# The go command keeps its user config and telemetry under XDG_CONFIG_HOME.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local
# A content hash of the sources stands in for the git revision, since the
# checkout may not be a git repository.
PERFBENCH_REV=$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
export PERFBENCH_REV
(cd "$src" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
