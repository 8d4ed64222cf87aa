#!/usr/bin/env bash
# Builds the certify binary and the benchmark from source into
# .bench_build/ and runs one benchmark workload. Run from the repository
# root; arguments are passed through:
#
#   bash perfbench/run.sh --workload fig3-fanout --seed 1 --seconds 20 --trace 0
#
# Every build and run output stays inside .bench_build/.
set -euo pipefail

if [ ! -f perfbench/go.mod ] || [ ! -f go.mod ] || [ ! -d cmd/certify ]; then
	echo "perfbench: run from the repository root (cmd/certify and go.mod must be present)" >&2
	exit 2
fi
build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/work"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod CGO_ENABLED=0
go build -o "$build/bin/certify" ./cmd/certify >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -bin "$build/bin/certify" -work "$build/work" "$@"
