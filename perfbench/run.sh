#!/usr/bin/env bash
# Builds sdserver and the benchmark from the checkout's sources, then runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload grid-dense --seed 1 --seconds 55 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/sdserver" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/sdserver and perfbench/ are required)" >&2
	exit 2
fi

build="$root/.bench_build"
out="$build/perfbench"
mkdir -p "$out" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go build -o "$out/sdserver" ./cmd/sdserver
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --server-bin "$out/sdserver" --out-dir "$out" "$@"
