#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload powerlaw --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, profiles, spans and the service's
# checkpoints all stay under .bench_build/ in the checkout. Outside a
# checkout of the repository the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
# The go command keeps telemetry under the user config directory and pprof
# its temporary files under PPROF_TMPDIR; keep both in the checkout.
export XDG_CONFIG_HOME="$build/config" PPROF_TMPDIR="$build/pprof"
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" --workdir "$build/run" "$@"
