#!/usr/bin/env bash
# Builds the perfbench program from this checkout's sources and runs it
# from the checkout root. Every build product (binary, Go build cache,
# trace files) stays under .bench_build/perfbench.
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" --out "$out" "$@"
