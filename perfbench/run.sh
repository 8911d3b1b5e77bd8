#!/usr/bin/env bash
# Builds esharing-server and the benchmark from this checkout into
# .bench_build/, then runs the benchmark with the given arguments:
#   bash perfbench/run.sh --workload place-default --seed 1 --seconds 25 --trace 0
# Run from the repository root. Every build artefact, cache and
# temporary file stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/esharing-server" ./cmd/esharing-server >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
