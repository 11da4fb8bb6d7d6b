#!/usr/bin/env bash
# Builds the programs the benchmark measures (cmd/moonbench, cmd/moonbenchd),
# the runner (bench/) and the layer drivers (bench/drivers) into .bench_build/
# and runs the runner from the root of the checkout:
#
#   bash bench/run.sh --workload sim-sort --seed 1 --seconds 30 --trace 0
#   bash bench/run.sh -repeat 10 -seed 1 -out bench/out/a.json
#   bash bench/run.sh -compare bench/out/a.json bench/out/b.json
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, module cache and toolchain state live under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
mkdir -p "$build/bin" bench/out
# With a fresh config directory the go command would start its telemetry
# sidecar, a detached child that outlives this script. The mode file is
# what `go telemetry off` writes; with it no sidecar is started.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

# The measured programs and the runner must build: without them there is
# no result, and the exit code says so.
go build -o "$build/bin/" ./cmd/moonbench ./cmd/moonbenchd
(cd bench && go build -o "$build/bin/bench-runner" .)
# The layer drivers call repro/internal directly. If a refactor breaks
# them, the per-layer numbers they own read 0; the end-to-end ones stand.
if ! (cd bench && go build -o "$build/bin/bench-drivers" ./drivers); then
  echo "bench/run.sh: layer drivers do not build; their per-layer metrics will read 0" >&2
  rm -f "$build/bin/bench-drivers"
fi

exec "$build/bin/bench-runner" "$@"
