#!/usr/bin/env bash
# Builds ascendd and the benchmark from the checkout this
# is run in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload hot_zipf --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build output, the Go build
# cache and the span traces stay under .bench_build (or
# $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/ascendd ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/ascendd here)" >&2
	exit 1
fi

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/bin" "$out/tmp"

# Keep the toolchain's caches and temporary files inside the checkout,
# and never reach for the network: the module has no dependencies.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off

# The daemon runs with no disk cache, no episode store and default
# workers, and the benchmark's own oracle must match it.
for v in $(compgen -e); do
	case $v in ASCENDPERF_*) unset "$v" ;; esac
done

go build -o "$out/bin/ascendd" ./cmd/ascendd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out/out" "$@"
