#!/bin/sh
# Builds everything, runs the full test suite and regenerates every paper
# table/figure into test_output.txt and bench_output.txt at the repo root.
# Each bench binary also writes a machine-readable snapshot (via its
# `--json` flag) into bench_json/, and the per-bench files are merged into
# BENCH_results.json at the repo root.
set -e
cd "$(dirname "$0")/.."
# Reuse an existing build tree's generator; prefer Ninja on fresh configures.
if [ -f build/CMakeCache.txt ]; then
  cmake -B build
elif command -v ninja >/dev/null 2>&1; then
  cmake -B build -G Ninja
else
  cmake -B build
fi
cmake --build build -j "$(nproc 2>/dev/null || echo 4)"
ctest --test-dir build 2>&1 | tee test_output.txt

rm -rf bench_json
mkdir -p bench_json
for b in build/bench/*; do
  # Skip CMake droppings, directories and anything not executable: only
  # regular executable files whose name starts with bench_ are benches.
  [ -f "$b" ] && [ -x "$b" ] || continue
  name=$(basename "$b")
  case "$name" in
    bench_*) ;;
    *) continue ;;
  esac
  echo "===== $b ====="
  if [ "$name" = "bench_gbench_micro" ]; then
    # Host-time microbenchmarks: keep the run short; the custom main strips
    # --json before google-benchmark parses its own flags. google-benchmark
    # >= 1.8 wants the "0.01s" suffix form, older releases reject it.
    "$b" --benchmark_min_time=0.01s --json "bench_json/$name.json" ||
      "$b" --benchmark_min_time=0.01 --json "bench_json/$name.json"
  elif [ "$name" = "bench_openloop" ]; then
    # The open-loop sweep stamps its JSON with the generator seed and
    # offered loads; pin the seed so BENCH_results.json is reproducible.
    "$b" --seed 42 --events 4096 --json "bench_json/$name.json"
  elif [ "$name" = "bench_coldstart" ]; then
    # Cold-start smoke gate: the binary self-checks a 100% rewrite-cache hit
    # rate across identical forks and lazy steady-state parity with eager;
    # any violated bound exits nonzero and (set -e) fails the run.
    "$b" --json "bench_json/$name.json"
  elif [ "$name" = "bench_scaling_mesh" ]; then
    # 16,384-binding mesh: 11 full world builds; cap the per-config zipfian
    # run so the whole sweep stays under a minute, and pin the seed.
    "$b" --seed 42 --events 4096 --json "bench_json/$name.json"
  else
    "$b" --json "bench_json/$name.json"
  fi
done 2>&1 | tee bench_output.txt

python3 scripts/merge_bench_json.py bench_json BENCH_results.json
echo "wrote BENCH_results.json"
