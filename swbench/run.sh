#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash swbench/run.sh --workload fleet --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build): the Go build cache, the binary
# and the traced run's spans and profiles.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS=

(cd "$root/swbench" && go build -o "$out/swbench" .)
cd "$root"
exec "$out/swbench" --out "$out/trace" "$@"
