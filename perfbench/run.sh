#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build outputs, the Go build cache and
# the per-seed digest store all live under .bench_build/ in that root, so
# nothing is read or written outside the checkout except the Go toolchain
# itself.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -state "$build/state" "$@"
