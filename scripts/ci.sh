#!/usr/bin/env bash
# ci.sh — the repository's continuous-integration gate, runnable locally
# or from .github/workflows/ci.yml. The -race pass exists specifically
# for internal/engine: the worker pool and the simulation cache are the
# only concurrent code in the repository, and TestCacheStress /
# TestParallelAnalysisDeterminism only prove anything under the race
# detector.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test -shuffle=on ./...

echo "== go test -race =="
go test -race ./...

echo "== differential & metamorphic harness =="
# The correctness gate: diff the production scheduler against the
# internal/check reference over every kernel variant and workload on
# every chip preset, then run each metamorphic property over 200
# generated programs per chip. Any diff or property violation fails CI.
go run ./cmd/ascendcheck -kernels all -chips all -seed 1 -props 200

echo "== learned surrogate gate =="
# The surrogate soundness gate (FORMATS.md §10): replay the corpus
# through the committed model — every gate-accepted prediction must
# meet the model's committed MAPE bound, and every gate-rejected case
# must be served bit-identically to the exact simulator. Then a full
# train-from-scratch smoke: retrain into a tmpdir and hold the fresh
# model to the same accuracy it claims for itself, so a feature or
# corpus change that degrades the fit fails here rather than silently
# loosening the committed bound on the next retrain.
go run ./cmd/ascendcheck -surrogate MODEL_surrogate.json
surrdir="$(mktemp -d)"
go run ./cmd/ascendfit train -out "$surrdir/model.json"
go run ./cmd/ascendfit eval -model "$surrdir/model.json"
rm -rf "$surrdir"

echo "== search parity + warm-start gates =="
# The beam-search gate (FORMATS.md §11): over the full kernel registry,
# the beam search, its candidates ranked by the critical-path proxy,
# must reproduce the exhaustive joint tuner's winner on every kernel
# while spending at most 50% of its exact simulations (-maxexactfrac),
# and a second pass against the episode directory the cold pass just
# wrote must warm-start every kernel and save at least 80% of the cold
# pass's exact simulations (-minwarmsaving). Either a wrong answer or
# eroded savings fails CI.
searchdir="$(mktemp -d)"
go run ./cmd/ascendopt -search \
    -episodes "$searchdir" -maxexactfrac 0.5 -minwarmsaving 0.8
rm -rf "$searchdir"

echo "== cluster regression gates (L2 eviction, failover body replay) =="
# Named explicitly so the two bugfix regression tests of this PR cannot
# be skipped by a test-filter change: the size-capped L2 directory must
# hold its -l2maxbytes budget under fill, and a failed-over POST must
# replay the complete buffered body on the retry attempt.
go test -run 'TestCacheServerEviction|TestProxyFailoverReplaysBody' ./internal/cluster

echo "== stats wire-compat gate (golden names, router sum, FORMATS.md table) =="
# Named explicitly, like the cluster gates above: every /metrics and
# /v1/stats name clients scrape must still be served, the router's
# cluster /v1/stats must sum every declared counter, and the FORMATS.md
# §8.4 table must match the counter declaration both ways.
go test -count=1 -run 'TestStatsWireGolden|TestStatsTableMatchesDeclaration' ./internal/serve
go test -count=1 -run 'TestRouterStatsSum' ./internal/cluster

echo "== memory-retention gate (programs die with their owner, shared presets stay immutable) =="
# Named explicitly, like the gates above: a simulated program and a
# model runner's builds must be collectable once their owner drops
# them, distinct inline-program requests must not grow the live heap,
# and serving every endpoint must leave the shared chip presets
# unchanged. An instruction stays 64 bytes with Label its only pointer
# (its regions live in the program's pointer-free arena), no kernel
# build allocates more than once per ten instructions, and neither
# parsing a program nor writing its trace allocates more on a longer
# program.
go test -count=1 -run 'TestRunOptsDoesNotRetainProgram|TestRunnerDoesNotRetainBuilds|TestInlineSimulateHeapBounded|TestChipPresetsStayImmutable' ./internal/serve
go test -count=1 -run 'TestInstrLayout|TestParseAllocs' ./internal/isa
go test -count=1 -run 'TestWriteAllocs' ./internal/trace
go test -count=1 -run 'TestKernelBuildAllocs' ./internal/kernels

echo "== simulation-reuse gate (one simulation per concurrent miss, exact callers stay exact, flights outlive their leader) =="
# Named explicitly, like the gates above, and repeated under the race
# detector because each test races goroutines on purpose: concurrent
# misses on one key must share one simulation, an optimize pass must
# simulate each distinct program once, a balanced multicore split must
# simulate its identical slice once, a panicking simulation must release
# the callers waiting on it, an exact caller must never join an
# estimate's flight, a coalesced request must still be answered
# after its flight's leader disconnects, kernel builds sharing the
# pooled instruction buffers must never write into one another's, and a
# comparing build (BuildMemo.Matches) must answer exactly what a full
# build and Program.Equal answer, also while other goroutines share
# its memo.
go test -race -count=5 -run 'TestCacheCoalescesConcurrentMisses|TestCacheFlightPanicReleasesWaiters|TestExactCallerNeverGetsEstimate' ./internal/engine
go test -race -count=5 -run 'TestOptimizeSimulatesEachProgramOnce' ./internal/opt
go test -race -count=5 -run 'TestBalancedRun' ./internal/multicore
go test -race -count=5 -run 'TestLeaderDisconnectKeepsFollowers' ./internal/serve
go test -race -count=5 -run 'TestBuilderBuffer|TestBuilderConcurrentBuilds|TestMatches' ./internal/kernels

echo "== fuzz (short budget) =="
# A few seconds of coverage-guided fuzzing per target; long enough to
# shake out parser/scheduler disagreements on mutated corpus programs,
# short enough for every CI run. Minimization is capped so a large
# "interesting" input cannot stall the gate.
go test -run '^$' -fuzz FuzzVerifySchedule -fuzztime 10s -fuzzminimizetime 5s ./internal/sim
go test -run '^$' -fuzz FuzzDiff -fuzztime 10s -fuzzminimizetime 5s ./internal/check
go test -run '^$' -fuzz FuzzExtract -fuzztime 10s -fuzzminimizetime 5s ./internal/surrogate
go test -run '^$' -fuzz FuzzParse -fuzztime 10s -fuzzminimizetime 5s ./internal/isa
go test -run '^$' -fuzz FuzzFingerprint -fuzztime 10s -fuzzminimizetime 5s ./internal/isa
go test -run '^$' -fuzz FuzzDecodeRequest -fuzztime 10s -fuzzminimizetime 5s ./internal/serve
go test -run '^$' -fuzz FuzzDecodeSimulate -fuzztime 10s -fuzzminimizetime 5s ./internal/serve
go test -run '^$' -fuzz FuzzWriteLabel -fuzztime 10s -fuzzminimizetime 5s ./internal/trace
go test -run '^$' -fuzz FuzzTraceWrite -fuzztime 10s -fuzzminimizetime 5s ./internal/trace

echo "== benchmark smoke =="
# Compile and execute every scheduler/engine/parser/critical-path/trace/
# kernel-build/search benchmark for one iteration: catches benchmarks that no
# longer build or that fail at runtime, without paying for a real
# measurement.
go test -run '^$' -bench . -benchtime 1x ./internal/sim ./internal/engine ./internal/surrogate ./internal/isa ./internal/critpath ./internal/trace ./internal/kernels ./internal/opt

echo "== parallel scaling smoke =="
# The engine worker sweep: ascendbench -json errors out by itself if
# the sweep reports diverge across worker counts, so this is always a
# determinism gate. The scaling floor (workers=4 at least 2x workers=1)
# is only meaningful with enough cores to actually run 4 workers, so it
# is armed conditionally.
scaledir="$(mktemp -d)"
minscaling=0
if [ "$(nproc)" -ge 4 ]; then
    minscaling=2.0
fi
go run ./cmd/ascendbench -json "$scaledir/bench_engine.json" -minscaling "$minscaling"
rm -rf "$scaledir"

# Non-blocking benchstat comparison against the committed baseline,
# only when the tool is installed (golang.org/x/perf is not vendored).
if command -v benchstat > /dev/null; then
    echo "== benchstat vs committed baseline (non-blocking) =="
    benchdir="$(mktemp -d)"
    go test -run '^$' -bench . -benchtime 100x -count 5 ./internal/sim \
        > "$benchdir/new.txt" || true
    if [ -f BENCH_sim.txt ]; then
        benchstat BENCH_sim.txt "$benchdir/new.txt" || true
    else
        benchstat "$benchdir/new.txt" || true
    fi
    rm -rf "$benchdir"
fi

echo "== trace schema check =="
# Emit a real trace and validate it against the FORMATS.md §6 schema —
# the executable form of the "loads in Perfetto" guarantee.
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/ascendprof -op add_relu -chip training \
    -trace "$tracedir/add_relu.json" > /dev/null
go run ./cmd/ascendprof -checktrace "$tracedir/add_relu.json"

echo "== serving smoke (ascendd + ascendload) =="
# End-to-end gate on the analysis service: build the daemon and the
# load generator, start the daemon on a random port, replay the 11
# built-in workloads against it, and require zero errors, a warm
# cache-hit floor and a sub-millisecond warm p50 (the coalescing +
# cache value proposition, measured). The warm-vs-cold ratio is
# printed but not gated: its cold side is the median of 11 requests,
# too few for a stable floor, and faster analysis lowers it. Then
# SIGTERM the daemon and require a clean drain.
servedir="$(mktemp -d)"
go build -o "$servedir/ascendd" ./cmd/ascendd
go build -o "$servedir/ascendload" ./cmd/ascendload
"$servedir/ascendd" -addr 127.0.0.1:0 > "$servedir/ascendd.log" 2>&1 &
ascendd_pid=$!
cleanup_ascendd() {
    kill "$ascendd_pid" 2> /dev/null || true
    rm -rf "$tracedir" "$servedir"
}
trap cleanup_ascendd EXIT
base=""
for _ in $(seq 1 100); do
    base="$(sed -n 's/^ascendd: listening on \(http:.*\)$/\1/p' "$servedir/ascendd.log")"
    [ -n "$base" ] && break
    sleep 0.1
done
if [ -z "$base" ]; then
    echo "ascendd never printed its address" >&2
    cat "$servedir/ascendd.log" >&2
    exit 1
fi
"$servedir/ascendload" -base "$base" -endpoint model -topn 3 -qps 200 -duration 3s \
    -json "$servedir/bench_serve.json" \
    -maxerrors 0 -minhitrate 0.5 -maxwarmp50 1ms
kill -TERM "$ascendd_pid"
wait "$ascendd_pid"
grep -q "shutdown complete" "$servedir/ascendd.log" || {
    echo "ascendd did not shut down cleanly" >&2
    cat "$servedir/ascendd.log" >&2
    exit 1
}

echo "== graph scheduling gates (serial parity + overlap smoke) =="
# The whole-graph scheduler's two invariants (FORMATS.md §12.3): at one
# core the graph makespan must be bit-exact to the serial operator sum
# for every built-in workload (the scheduler adds no cost when there is
# nothing to overlap), and at four cores the multi-core schedule must
# strictly beat serial on a wide decode workload (overlap really pays,
# not just "does not lose" via the serial fallback).
go run ./cmd/ascendgraph -all -cores 1 -parity > /dev/null
go run ./cmd/ascendgraph -model "Llama 2 Decode" -cores 4 -minoverlap 1.0 > /dev/null

echo "== docs drift check =="
# Every CLI's -h flag set must match the README's CLI reference tables.
scripts/docscheck.sh

echo "== cluster smoke (router + 2 backends, kill one mid-load) =="
# End-to-end gate on the cluster layer: spawned shards behind the
# consistent-hash router sharing an L2 tier, Zipf traffic, one backend
# killed at half-duration. Gates: zero client-visible errors, at least
# one failover, and an L2 restart hit rate >= 0.5 (fresh shards answer
# from the shared tier instead of re-simulating). The 2-backend
# throughput-scaling floor only measures anything real with enough
# cores for the shards to actually run in parallel, so it arms at >= 4
# cores and disarms below (BENCH_cluster.json records `cores` for the
# same reason).
minscaling2="-1"
if [ "$(nproc)" -ge 4 ]; then
    minscaling2=1.7
fi
clusterdir="$(mktemp -d)"
"$servedir/ascendload" -cluster 1,2 -kill -duration 2s \
    -json "$clusterdir/bench_cluster.json" \
    -maxerrors 0 -minfailover 1 -minl2 0.5 -minscaling2 "$minscaling2"
rm -rf "$clusterdir"

echo "== router binary smoke (ascendrouter + 2 daemons) =="
# The ascendrouter binary end to end: two real daemons, route a request
# through the router binary, require the X-Ascendd-Route header and a
# clean SIGTERM shutdown.
routerdir="$(mktemp -d)"
go build -o "$routerdir/ascendrouter" ./cmd/ascendrouter
"$servedir/ascendd" -addr 127.0.0.1:0 > "$routerdir/shard1.log" 2>&1 &
shard1_pid=$!
"$servedir/ascendd" -addr 127.0.0.1:0 > "$routerdir/shard2.log" 2>&1 &
shard2_pid=$!
cleanup_cluster() {
    kill "$shard1_pid" "$shard2_pid" "${router_pid:-}" 2> /dev/null || true
    rm -rf "$tracedir" "$servedir" "$routerdir"
}
trap cleanup_cluster EXIT
shard1=""
shard2=""
for _ in $(seq 1 100); do
    shard1="$(sed -n 's/^ascendd: listening on \(http:.*\)$/\1/p' "$routerdir/shard1.log")"
    shard2="$(sed -n 's/^ascendd: listening on \(http:.*\)$/\1/p' "$routerdir/shard2.log")"
    [ -n "$shard1" ] && [ -n "$shard2" ] && break
    sleep 0.1
done
if [ -z "$shard1" ] || [ -z "$shard2" ]; then
    echo "cluster shards never printed their addresses" >&2
    exit 1
fi
"$routerdir/ascendrouter" -addr 127.0.0.1:0 -backends "$shard1,$shard2" \
    -probe 250ms > "$routerdir/router.log" 2>&1 &
router_pid=$!
router=""
for _ in $(seq 1 100); do
    router="$(sed -n 's/^ascendrouter: listening on \(http:[^ ]*\).*$/\1/p' "$routerdir/router.log")"
    [ -n "$router" ] && break
    sleep 0.1
done
if [ -z "$router" ]; then
    echo "ascendrouter never printed its address" >&2
    cat "$routerdir/router.log" >&2
    exit 1
fi
curl -fsS -D "$routerdir/headers.txt" -o /dev/null -X POST "$router/v1/roofline" \
    -d '{"chip":"training","op":"mul"}'
grep -qi "^X-Ascendd-Route:" "$routerdir/headers.txt" || {
    echo "router response lacks X-Ascendd-Route" >&2
    cat "$routerdir/headers.txt" >&2
    exit 1
}
curl -fsS "$router/readyz" > /dev/null
kill -TERM "$router_pid"
wait "$router_pid"
grep -q "shutdown complete" "$routerdir/router.log" || {
    echo "ascendrouter did not shut down cleanly" >&2
    cat "$routerdir/router.log" >&2
    exit 1
}
kill -TERM "$shard1_pid" "$shard2_pid"
wait "$shard1_pid" "$shard2_pid"

echo "CI OK"
