#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it pinned to one
# CPU with the given arguments, e.g.
#   bash perfbench/run.sh --workload mesh-fanout --seed 1 --seconds 30 --trace 0
# Everything it builds or caches stays under .bench_build/ at the root of
# the checkout. See perfbench/README.md for why the run is pinned.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
# The go command's caches, temp files and telemetry counters (kept under the
# user config dir) all go to $out; nothing is fetched.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out"
export GOTOOLCHAIN=local GOFLAGS="-mod=mod -buildvcs=false" GOWORK=off
XDG_CONFIG_HOME="$out/config" go -C "$here" build -o "$out/perfbench" .
# One CPU, the last this process may run on (taskset prints e.g. "0-3" or
# "0,2"), under the Go scheduler configuration of a 2-CPU host.
cpus="$(taskset -pc $$)"
cpus="${cpus##*: }"
export GOMAXPROCS=2
exec taskset -c "${cpus##*[,-]}" "$out/perfbench" "$@"
