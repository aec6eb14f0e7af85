#!/usr/bin/env bash
# Builds embench from this checkout and runs it with the given arguments:
#
#   bash embench/run.sh --workload sim-burst --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, cluster
# worker temporary files and span files all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOWORK=off

(cd "$root/embench" && go build -o "$out/embench" .)
exec "$out/embench" "$@"
