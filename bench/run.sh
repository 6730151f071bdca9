#!/usr/bin/env bash
# Build the benchmark from source inside the checkout and run it.
# Everything this leaves behind — Go build cache, binary, results — is
# under .bench_build/ at the repository root, which .gitignore names.
#
#   bash bench/run.sh -seed 1988                       all workloads
#   bash bench/run.sh -workload fwd_chain_64b -trace 1 one run
#   bash bench/run.sh -compare a.json b.json           two result sets
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

# No network, no toolchain download, no cache outside the checkout.
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$build/darpabench" .)
cd "$root"
exec "$build/darpabench" -out "$build/out" "$@"
