#!/usr/bin/env bash
# Builds the kcmd benchmark from the sources of the checkout it sits in
# and runs it with the given arguments, from the checkout's root:
#
#   bash kcmdbench/run.sh --workload serve-small --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout: the Go build cache, the binary, and the traced runs' spans.
# The build needs nothing beyond the checkout and the Go toolchain.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

commit=unknown
if [ -d "$root/.git" ]; then
    commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$here" && go build -buildvcs=false -o "$out/kcmdbench" .)
exec "$out/kcmdbench" -commit "$commit" -spans "$out/spans" "$@"
