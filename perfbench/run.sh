#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes one run:
#   bash perfbench/run.sh --workload udp-hot --seed 1 --seconds 20 --trace 0
# Everything the toolchain writes (build cache, temp files, the binary)
# stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local \
  GOPROXY=off GOSUMDB=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
