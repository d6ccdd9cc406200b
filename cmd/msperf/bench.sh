#!/usr/bin/env bash
# Builds msperf from the checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/msperf/bench.sh --workload pipeline --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (the binary, the Go build cache, temporary
# files, Go's per-user config) stays under $CARGO_TARGET_DIR, default
# .bench_build, so a fresh checkout builds from source and nothing is
# written outside it. The first build compiles the standard library into
# that cache and takes a minute or two; later builds are incremental.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go build -C "$src" -o "$out/msperf" .
exec "$out/msperf" "$@"
