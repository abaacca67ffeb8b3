#!/usr/bin/env bash
# Builds the end-to-end CPR benchmark from source and runs one workload.
# Usage: bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Every build artifact, the Go build cache
# and the span files stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
src="$root/e2ebench"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=
export XDG_CONFIG_HOME="$out/config"
export HOME="$out/home"
export TMPDIR="$out/tmp"
export GOTMPDIR="$out/tmp"
mkdir -p "$HOME" "$XDG_CONFIG_HOME" "$TMPDIR"

bin="$out/e2ebench"
(cd "$src" && go build -trimpath -o "$bin" .) >&2
exec "$bin" --tracedir "$out/traces" "$@"
