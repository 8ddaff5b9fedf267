#!/usr/bin/env bash
# Builds perfbench and the two programs under test
# (cmd/entobench, cmd/entobenchd) from the checkout's sources, then runs
# perfbench with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold_sweep --seed 1 --seconds 10 --trace 0
#
# Every build product, Go cache and scratch file stays under
# .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/entobench ] || [ ! -d cmd/entobenchd ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/entobench, cmd/entobenchd and perfbench/ are required)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

go build -o "$build/bin/entobench" ./cmd/entobench
go build -o "$build/bin/entobenchd" ./cmd/entobenchd
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build" "$@"
