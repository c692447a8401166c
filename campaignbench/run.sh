#!/usr/bin/env bash
# Builds the campaign benchmark from the checkout's sources and runs it with
# the given arguments (--workload, --seed, --seconds, --trace). Everything the
# build and the run write stays under .bench_build at the checkout root.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$bench_dir" build -o "$out/campaignbench" . >&2

exec "$out/campaignbench" -workdir "$out" "$@"
