#!/usr/bin/env bash
# Builds the PS3 benchmark from source and runs it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload adhoc-pick --seed 1 --seconds 20 --trace 0
#
# Every build artifact (the Go build cache, temporary build files, the
# binary) and every file the benchmark writes stays under .bench_build in
# the current directory. The build needs the PS3 module one directory above
# perfbench; without it the build fails and the script exits nonzero
# without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/ps3perf" .) >&2
exec "$out/ps3perf" "$@"
