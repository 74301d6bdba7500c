#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs
# one workload. Run it from anywhere inside the checkout:
#
#   bash perfbench/run.sh --workload analyze-b2 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write lands in .bench_build/ at the
# checkout root: the Go build cache, the binary, scratch inputs and the
# span files of traced runs. The build needs the filemig module one
# directory up; without it the script exits non-zero before printing a
# result.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$here" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
