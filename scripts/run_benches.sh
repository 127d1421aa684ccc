#!/usr/bin/env bash
# Runs the miner benchmark set and writes one BENCH_<name>.json per binary,
# seeding the repo's benchmark-baseline trajectory.
#
# Usage: scripts/run_benches.sh [--smoke] [--threads=N] [--shards=N] [--max_gap=N] [BUILD_DIR] [OUT_DIR]
#   --smoke      tiny sizes for CI (seconds, shape checks only; numbers from
#                shared CI runners are not comparable across runs)
#   --threads=N  thread count for the fig13 miner rows (default 1). The
#                value is recorded in the BENCH_fig13 JSON payload (along
#                with the fixed root_batch) so multicore baselines are only
#                ever compared against equal-parallelism baselines.
#   --shards=N   extra shard count for the stream-engine rows (default 0 =
#                just the built-in 1/2/4 sweep of `index` rows, each
#                cross-checked against the serial oracle); recorded per row
#                in the BENCH_stream_monitor JSON payload.
#   --max_gap=N  max-gap guard for the constrained stream-engine rows
#                (default 40): every query gets a per-transition max_gap=N
#                guard and runs once with guard-driven per-partial expiry
#                and once window-only; the peak-live-partials pair lands in
#                BENCH_stream_monitor.json. 0 skips the constrained rows.
#   BUILD_DIR    CMake build directory with the bench binaries (default: build)
#   OUT_DIR      where the BENCH_*.json files land (default: bench-results)
#
# Full mode (the default) uses the benches' paper-shaped defaults and takes
# tens of minutes; run it on an idle machine when recording a baseline.
# The micro JSON needs no extra tagging: BM_MineParallel rows carry their
# (threads, root_batch) pair in the benchmark name.
set -euo pipefail

SMOKE=0
THREADS=1
SHARDS=0
MAX_GAP=40
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke)
      SMOKE=1
      shift
      ;;
    --threads=*)
      THREADS="${1#--threads=}"
      shift
      ;;
    --threads)
      THREADS="${2:?--threads needs a value}"
      shift 2
      ;;
    --shards=*)
      SHARDS="${1#--shards=}"
      shift
      ;;
    --shards)
      SHARDS="${2:?--shards needs a value}"
      shift 2
      ;;
    --max_gap=*)
      MAX_GAP="${1#--max_gap=}"
      shift
      ;;
    --max_gap)
      MAX_GAP="${2:?--max_gap needs a value}"
      shift 2
      ;;
    *)
      break
      ;;
  esac
done
case "$THREADS" in
  ''|*[!0-9]*) echo "error: --threads must be a non-negative integer, got '$THREADS'" >&2; exit 2 ;;
esac
case "$SHARDS" in
  ''|*[!0-9]*) echo "error: --shards must be a non-negative integer, got '$SHARDS'" >&2; exit 2 ;;
esac
case "$MAX_GAP" in
  ''|*[!0-9]*) echo "error: --max_gap must be a non-negative integer, got '$MAX_GAP'" >&2; exit 2 ;;
esac
BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench-results}"

if [[ ! -x "$BUILD_DIR/bench/bench_micro_operations" ]]; then
  echo "error: $BUILD_DIR/bench/bench_micro_operations not found." >&2
  echo "Build first: cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi
mkdir -p "$OUT_DIR"

# Micro benches emit google-benchmark JSON natively; BM_MineParallel rows
# are named BM_MineParallel/<threads>/<root_batch>.
MICRO_ARGS=(--benchmark_out="$OUT_DIR/BENCH_micro_operations.json"
            --benchmark_out_format=json)
if [[ "$SMOKE" == 1 ]]; then
  MICRO_ARGS+=(--benchmark_filter='BM_MineParallel/1/1|BM_MineParallel/2/16|BM_EdgeScanEnumerate|BM_SubgraphTest<SeqMatcher>'
               --benchmark_min_time=0.05)
fi
"$BUILD_DIR/bench/bench_micro_operations" "${MICRO_ARGS[@]}"

# The fig13 miner comparison writes the same-shaped JSON via --json_out and
# records --threads/--root_batch as counters on every row. The committed
# seed baselines live in bench/baselines/BENCH_*.json; refresh them from a
# full (non-smoke) run on an idle machine.
FIG13_ARGS=(--json_out="$OUT_DIR/BENCH_fig13.json"
            --threads="$THREADS")
if [[ "$SMOKE" == 1 ]]; then
  FIG13_ARGS+=(--scale=0.2 --budget_ms=5000 --max_edges=4
               --miners=TGMiner --classes=small,medium)
fi
"$BUILD_DIR/bench/bench_fig13_miner_comparison" "${FIG13_ARGS[@]}"

# The stream-engine throughput sweep (events/sec vs query count, matching
# path, and shard count) writes the same JSON shape via --json_out; every
# row carries queries/shards/indexed counters.
STREAM_ARGS=(--json_out="$OUT_DIR/BENCH_stream_monitor.json"
             --shards="$SHARDS"
             --max_gap="$MAX_GAP")
if [[ "$SMOKE" == 1 ]]; then
  STREAM_ARGS+=(--events=3000 --queries=16)
fi
"$BUILD_DIR/bench/bench_stream_monitor" "${STREAM_ARGS[@]}"

echo
echo "Wrote:"
ls -l "$OUT_DIR"/BENCH_*.json
