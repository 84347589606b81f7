#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload kv_get --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare -base 'a/*.out' -head 'b/*.out'
#
# Run it from the repository root. Every file the build or the run
# writes stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)

# The checkout need not be a git repository; never look above it.
PERFBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
	git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT
exec "$out/perfbench" "$@"
