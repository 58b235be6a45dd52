#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it
# with the given arguments. The build cache, the binary and the profiles
# stay under .bench_build/ at the checkout root.
#
#   bash bench/run.sh -workload media-1k -seed 1 -seconds 20 -trace 0
#   bash bench/run.sh -seed 1 -reps 5 -trace 1 -json set.json
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
