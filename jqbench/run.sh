#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
#
#   bash jqbench/run.sh --workload coding-steady --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build products, the Go build cache and
# the Go tool's own state live under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is read from or written to the user's home.
# The build needs the jqos module one directory up; without it the build
# fails and the script exits non-zero before printing any result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local

(cd "$root/jqbench" && go build -o "$out/jqbench" .) >&2
exec "$out/jqbench" "$@"
