#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
#
# Everything it writes (the go command's cache and files, the binary,
# traced output) stays under $CARGO_TARGET_DIR, default .bench_build, at
# the root.
set -euo pipefail

root=$(pwd)
bench="$root/perfbench"
if [[ ! -f "$bench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root (perfbench/ and the program's go.mod must both be there)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp"
# The go command's cache, temporary files, configuration (including its
# local telemetry counters) and module paths all stay under $out.
(cd "$bench" && GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
	go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/trace" "$@"
