#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# repository root, for example:
#
#   bash perfbench/run.sh --workload tourney --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every temporary file of the build stay
# under $CARGO_TARGET_DIR (default .bench_build), so a run writes nothing
# outside the checkout. The build needs the parent module, so the script
# fails before printing any result when run outside a full checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/home"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
