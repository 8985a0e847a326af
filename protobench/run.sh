#!/usr/bin/env bash
# Builds protobench from the sources of the checkout it sits in and runs it
# with the given arguments. Run it from the repository root:
#
#   bash protobench/run.sh --workload files --seed 1 --seconds 10 --trace 0
#
# The binary and Go's build cache go under $CARGO_TARGET_DIR (default
# .bench_build); nothing is downloaded.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOTELEMETRY=off GOWORK=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/protobench" .)
exec "$out/protobench" "$@"
