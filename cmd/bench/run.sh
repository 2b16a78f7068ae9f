#!/usr/bin/env bash
# Builds cmd/bench and runs it from the repository root with the given
# arguments. Everything the build and the run write goes under
# .bench_build/ at the root: the Go build cache, the binaries, temporary
# journals and trace files. Outside a full checkout the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

go build -C cmd/bench -o "$work/bin/bench" .
exec "$work/bin/bench" "$@"
