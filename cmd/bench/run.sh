#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Run it
# from the repository root:
#
#   bash cmd/bench/run.sh --workload hot_repeat --seed 2005 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the go command's configuration and
# telemetry directory, the binary, and the temporary directories the
# benchmark creates (TMPDIR). The toolchain is pinned to the local one and
# module downloads are off, so the build never touches the network; without
# the rest of the repository next to cmd/bench the build fails and the script
# exits non-zero.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= TMPDIR="$out/tmp"
go build -C cmd/bench -o "$out/bench" .
exec "$out/bench" "$@"
