#!/usr/bin/env sh
# CI entry point: the tier-1 matrix, twice — plus an opt-in chaos soak.
#
#   1. plain        RelWithDebInfo, the configuration ROADMAP.md documents,
#                   built with CMAKE_COMPILE_WARNING_AS_ERROR=ON, so a new
#                   compiler warning fails the leg;
#                   then bench_telemetry: it exits 1 when the store's memory
#                   passes its budget, a sample is dropped, or the tight-
#                   budget leg evicts nothing, so every run exercises the
#                   telemetry slab reusing evicted series' blocks
#   2. asan-ubsan   FLEXRIC_SANITIZE=address;undefined with
#                   -fno-sanitize-recover=all, so any ASan/UBSan finding in
#                   the unit tests, the fuzz battery, or the differential
#                   harness fails the run hard
#
# Both legs run the full ctest suite, which includes the deterministic fuzz
# battery (fuzz/: the E2AP codec fuzzers, fuzz_sm over every E2SM payload in
# PER/FLAT/PROTO, fuzz_rollups), the telemetry store suite (test_telemetry —
# built into both legs via flexric_telemetry).
#
# Every leg also runs the static-analysis gates: tools/analyze (the repo's
# one static analyzer, CTest targets `analyze`, `lint`, `analyze_fixtures`
# and `analyze_self`) builds and runs in each configuration; the asan-ubsan
# leg additionally compiles the FLEXRIC_AFFINITY_GUARDS runtime checks in
# (FLEXRIC_SANITIZE implies guards via the AUTO default), so test_affinity's
# death tests execute there.
#
# Usage: ./ci.sh [jobs] [--quick] [--chaos] [--overload] [--tidy]
#                [--analyze] [--shard] [--supervise]
#   --quick     configure FLEXRIC_FUZZ_ITERS=1000 for a fast local smoke run;
#               without it the fuzz battery keeps the CI default (100k).
#   --chaos     add a resilience soak after the matrix: test_resilience over a
#               wide seeded fault schedule (FLEXRIC_CHAOS_SEEDS), every seed
#               against every server (plain, 1, 2 and 4 shards), on the plain
#               build AND under TSan — the reconnect/heartbeat/replay machinery
#               is all timer-driven callbacks, exactly where a latent data race
#               would hide. A failure prints the seed and server that
#               reproduce it.
#   --overload  add an indication-storm soak: test_overload over a wide seeded
#               storm schedule (FLEXRIC_STORM_SEEDS sweeps 1x/4x/16x/64x storm
#               multipliers), every seed against every server (plain, 1, 2
#               and 4 shards), on the plain build AND under TSan — admission,
#               shedding and quarantine all run inside reactor callbacks, the
#               same place a race would hide. Each instance runs twice and the
#               traces must match bit-for-bit (DESIGN.md §11).
#   --tidy      opt-in clang-tidy lane over src/ using the .clang-tidy config
#               (bugprone-*, performance-*, misc-unused-*) and the plain leg's
#               compile_commands.json. Skipped with a notice when clang-tidy is
#               not installed, so the core matrix never depends on it.
#   --analyze   standalone static-analysis lane: build only flexric-analyze,
#               run the full tree scan against the committed hot-path
#               allocation baseline (tools/analyze/hotpath_baseline.txt),
#               emit the machine-readable --json report, list every
#               lint: allow(...) suppression with --list (the tree scan
#               fails on unknown, reasonless or stale ones), diff the
#               fixture corpus and self-scan the analyzer's own sources.
#               No Python anywhere in the lane. Fast enough
#               for a pre-push hook; the default run executes the same lane
#               after the plain leg, so findings gate CI either way.
#   --supervise standalone shard-supervision lane (DESIGN.md §15): the
#               watchdog/quarantine/recovery suite (test_supervision) on the
#               plain build AND under TSan — epoch-guarded ledger publishes
#               (each one the shard's heartbeat), the watchdog's beat reads
#               and the rebuild handoff are exactly where a latent race
#               would hide. Under TSan it also runs the counter board's own
#               tests (test_sharding's ShardStats.* and ShardedLedger.*),
#               since that board now backs the watchdog. The
#               suite's kill/recover soak (wedge/crash faults, 12 seeds at
#               each of 1, 2 and 4 shards) runs every instance twice and the
#               traces must match
#               byte-for-byte; MTTR and ledger exactness are asserted per
#               instance. The default matrix already runs test_supervision in
#               both ctest legs as the smoke tier; this lane adds TSan. It
#               then runs bench_supervise --json and diffs its results
#               against the committed BENCH_supervise.json: the bench runs on
#               a virtual clock, so every MTTR figure is bit-deterministic
#               and any difference fails the lane.
#   --shard     standalone sharded-RIC lane (DESIGN.md §13): TSan build of the
#               sharding suite, then (1) test_sharding — partitioner, SPSC
#               rings (incl. the two-thread hammer, a real race under TSan),
#               ShardPool, sharded delivery/fan-out/misroute/ledger/resync and
#               the multi-shard determinism matrix, (2) test_transport — each
#               reactor owns the receive buffer its frames are views into, and
#               shards pump their reactors on their own threads, (3) the
#               affinity death tests (per-shard domains abort with the
#               offended shard's name), (4) the chaos + storm soaks' 4-shard
#               instances
#               (--gtest_filter='*shards_4_*') — every seed runs twice and
#               the traces must match byte-for-byte, (5) the static analyzer:
#               tree scan (the @affine(shard) domain-ownership proof) and the
#               fixture golden file.
set -eu

jobs=""
fuzz_iters=100000
chaos=0
overload=0
tidy=0
analyze=0
shard=0
supervise=0
for arg in "$@"; do
  case "$arg" in
    --quick) fuzz_iters=1000 ;;
    --chaos) chaos=1 ;;
    --overload) overload=1 ;;
    --tidy) tidy=1 ;;
    --analyze) analyze=1 ;;
    --shard) shard=1 ;;
    --supervise) supervise=1 ;;
    *) jobs=$arg ;;
  esac
done
[ -n "$jobs" ] || jobs=$(nproc 2>/dev/null || echo 4)
root=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)

# 64 seeds for the soaks (the in-tree default is 12); override by exporting
# FLEXRIC_CHAOS_SEEDS / FLEXRIC_STORM_SEEDS yourself before invoking ci.sh.
default_chaos_seeds=$(seq -s, 1 64)
default_storm_seeds=$(seq -s, 1 64)

run_leg() {
  leg_name=$1
  build_dir=$2
  shift 2
  echo "==== [$leg_name] configure ===="
  cmake -B "$build_dir" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFLEXRIC_FUZZ_ITERS="$fuzz_iters" "$@"
  echo "==== [$leg_name] build ===="
  cmake --build "$build_dir" -j "$jobs"
  echo "==== [$leg_name] test ===="
  (cd "$build_dir" && ctest --output-on-failure -j "$jobs")
}

run_chaos_leg() {
  leg_name=$1
  build_dir=$2
  echo "==== [$leg_name] chaos soak (FLEXRIC_CHAOS_SEEDS=${FLEXRIC_CHAOS_SEEDS:-$default_chaos_seeds}) ===="
  FLEXRIC_CHAOS_SEEDS="${FLEXRIC_CHAOS_SEEDS:-$default_chaos_seeds}" \
    "$build_dir/tests/test_resilience" --gtest_brief=1
}

run_overload_leg() {
  leg_name=$1
  build_dir=$2
  echo "==== [$leg_name] storm soak (FLEXRIC_STORM_SEEDS=${FLEXRIC_STORM_SEEDS:-$default_storm_seeds}) ===="
  FLEXRIC_STORM_SEEDS="${FLEXRIC_STORM_SEEDS:-$default_storm_seeds}" \
    "$build_dir/tests/test_overload" --gtest_brief=1
}

run_tidy_lane() {
  build_dir=$1
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "==== [tidy] clang-tidy not installed; skipping (opt-in lane) ===="
    return 0
  fi
  echo "==== [tidy] clang-tidy over src/ (compile_commands: $build_dir) ===="
  # shellcheck disable=SC2046
  clang-tidy -p "$build_dir" --quiet \
    $(find "$root/src" -name '*.cpp' | sort)
}

run_analyze_lane() {
  build_dir=$1
  echo "==== [analyze] build flexric-analyze ===="
  cmake -B "$build_dir" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build_dir" -j "$jobs" --target flexric-analyze
  bin="$build_dir/tools/analyze/flexric-analyze"
  echo "==== [analyze] tree scan (baseline: tools/analyze/hotpath_baseline.txt) ===="
  "$bin" --root "$root" --baseline "$root/tools/analyze/hotpath_baseline.txt"
  echo "==== [analyze] json report ===="
  "$bin" --root "$root" --baseline "$root/tools/analyze/hotpath_baseline.txt" --json
  echo "==== [analyze] suppression audit ===="
  "$bin" --root "$root" --list
  echo "==== [analyze] fixtures ===="
  "$bin" --fixtures "$root/tests/analyze_fixtures"
  echo "==== [analyze] self-scan (tools/analyze dogfoods its own rules) ===="
  "$bin" --self "$root/tools/analyze"
}

run_shard_lane() {
  build_dir=$1
  echo "==== [shard] tsan build ===="
  cmake -B "$build_dir" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFLEXRIC_FUZZ_ITERS="$fuzz_iters" -DFLEXRIC_SANITIZE="thread"
  cmake --build "$build_dir" -j "$jobs" --target \
    test_sharding test_affinity test_transport test_resilience test_overload \
    flexric-analyze
  echo "==== [shard] sharding suite (rings, pool, delivery, determinism) ===="
  "$build_dir/tests/test_sharding" --gtest_brief=1
  echo "==== [shard] transport suite (per-reactor receive buffer) ===="
  "$build_dir/tests/test_transport" --gtest_brief=1
  echo "==== [shard] affinity guards (per-shard domains) ===="
  "$build_dir/tests/test_affinity" --gtest_brief=1
  echo "==== [shard] chaos soak at 4 shards (double-run determinism) ===="
  "$build_dir/tests/test_resilience" \
    --gtest_brief=1 --gtest_filter='*ChaosSoak*shards_4_*'
  echo "==== [shard] storm soak at 4 shards (double-run determinism) ===="
  "$build_dir/tests/test_overload" \
    --gtest_brief=1 --gtest_filter='*StormSoak*shards_4_*'
  bin="$build_dir/tools/analyze/flexric-analyze"
  echo "==== [shard] analyzer gate (@affine(shard) domain ownership) ===="
  "$bin" --root "$root" --baseline "$root/tools/analyze/hotpath_baseline.txt"
  "$bin" --fixtures "$root/tests/analyze_fixtures"
}

run_supervise_lane() {
  plain_dir=$1
  tsan_dir=$2
  echo "==== [supervise] plain build ===="
  cmake -B "$plain_dir" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFLEXRIC_SANITIZE=""
  cmake --build "$plain_dir" -j "$jobs" --target test_supervision \
    bench_supervise
  echo "==== [supervise] suite + 12-seed soak at 1/2/4 shards (plain, double-run determinism) ===="
  "$plain_dir/tests/test_supervision" --gtest_brief=1
  echo "==== [supervise] bench_supervise vs BENCH_supervise.json ===="
  "$plain_dir/bench/bench_supervise" --json "$plain_dir/BENCH_supervise.json"
  diff -u "$root/BENCH_supervise.json" "$plain_dir/BENCH_supervise.json"
  echo "==== [supervise] tsan build ===="
  cmake -B "$tsan_dir" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFLEXRIC_FUZZ_ITERS="$fuzz_iters" -DFLEXRIC_SANITIZE="thread"
  cmake --build "$tsan_dir" -j "$jobs" --target test_supervision \
    test_sharding
  echo "==== [supervise] suite + 12-seed soak at 1/2/4 shards (tsan) ===="
  "$tsan_dir/tests/test_supervision" --gtest_brief=1
  echo "==== [supervise] counter board: seqlock, epoch, ledger (tsan) ===="
  "$tsan_dir/tests/test_sharding" --gtest_brief=1 \
    --gtest_filter='ShardStats.*:ShardedLedger.*'
}

# --analyze is a standalone lane: run it and exit without the full matrix.
if [ "$analyze" -eq 1 ]; then
  run_analyze_lane "$root/build"
  echo "==== ci.sh: analyze lane passed ===="
  exit 0
fi

# --shard is a standalone lane too: the TSan sharding suite + soaks + gate.
if [ "$shard" -eq 1 ]; then
  run_shard_lane "$root/build-tsan"
  echo "==== ci.sh: shard lane passed ===="
  exit 0
fi

# --supervise: the watchdog/quarantine/recovery suite, plain + TSan.
if [ "$supervise" -eq 1 ]; then
  run_supervise_lane "$root/build" "$root/build-tsan"
  echo "==== ci.sh: supervise lane passed ===="
  exit 0
fi

run_leg plain "$root/build" \
  -DFLEXRIC_SANITIZE="" -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
echo "==== [plain] bench_telemetry (budget, drops, eviction under a tight budget) ===="
"$root/build/bench/bench_telemetry"
# The full analysis lane (tree scan, json, suppression audit, fixtures,
# self-scan) is part of the default run — the plain build above already
# produced the binary, so this adds seconds, and a finding fails CI even when
# nobody remembered to pass --analyze.
run_analyze_lane "$root/build"
run_leg asan-ubsan "$root/build-asan" \
  -DFLEXRIC_SANITIZE="address;undefined"

if [ "$tidy" -eq 1 ]; then
  run_tidy_lane "$root/build"
fi

# The TSan build backs both soaks; build (and ctest) it once even when
# --chaos and --overload are both requested.
if [ "$chaos" -eq 1 ] || [ "$overload" -eq 1 ]; then
  run_leg tsan "$root/build-tsan" \
    -DFLEXRIC_SANITIZE="thread"
fi
if [ "$chaos" -eq 1 ]; then
  run_chaos_leg plain-chaos "$root/build"
  run_chaos_leg tsan-chaos "$root/build-tsan"
fi
if [ "$overload" -eq 1 ]; then
  run_overload_leg plain-overload "$root/build"
  run_overload_leg tsan-overload "$root/build-tsan"
fi
if [ "$chaos" -eq 1 ] || [ "$overload" -eq 1 ]; then
  echo "==== ci.sh: matrix + soaks passed ===="
else
  echo "==== ci.sh: both legs passed ===="
fi
