#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root; every file it writes goes under .bench_build:
#
#   bash perfbench/run.sh --workload ratings-market --seed 1 --seconds 12 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ] || [ ! -d internal ]; then
  echo "perfbench: run from the repository root; the broker sources are missing here" >&2
  exit 2
fi
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/home" "$out/tmp"
go=$(command -v go || echo /usr/local/go/bin/go)
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
  HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
  GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd perfbench && "$go" build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
