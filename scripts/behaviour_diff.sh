#!/bin/sh
# Proves that a change moved nothing simulated: builds this tree and a parent
# tree, runs the same deterministic surfaces in both and compares them.
#
# Usage: scripts/behaviour_diff.sh <parent-tree> [<out-dir>]
#
# Compared, in this order:
#   1. every bench_* binary except bench_gbench_micro (its output is host
#      time only): stdout, and the --json metrics minus host-time keys
#      (stderr is kept as *.log, not compared: bench_table6_vmfunc_scan
#      reports a scan of its own binary there)
#   2. every example's stdout
#   3. the "[stress fingerprint]" lines of the run_stress.sh seed matrix
#   4. one perfbench run per workload (seed 1, untraced, 2 s): the sim_*
#      metrics, sim_digest, ops_failed_frac, and each round's op count and
#      digest
# The first difference is printed and the script exits 1; identical trees
# exit 0. It exits 2 when nothing can be compared: a build fails, a surface
# fails the same way in both trees, run_stress.sh prints no fingerprint or a
# perfbench run prints no sim_digest. Outputs land in <out-dir> (default: a
# fresh mktemp directory).
#
# Overrides:
#   BUILD_DIR=build      build tree inside each source tree
#   SB_STRESS_SEEDS=...  passed through to run_stress.sh
set -u

if [ $# -lt 1 ] || [ ! -f "$1/CMakeLists.txt" ]; then
  echo "usage: $0 <parent-tree> [<out-dir>]" >&2
  exit 2
fi
HERE=$(cd "$(dirname "$0")/.." && pwd)
PARENT=$(cd "$1" && pwd)
OUT=${2:-$(mktemp -d)}
BUILD_DIR=${BUILD_DIR:-build}
JOBS=$(nproc 2>/dev/null || echo 4)
WORKLOADS="ycsb_sqlite spawn_churn mesh_zipf"
# Appended to an artifact whose producer failed, so a failure is compared too.
FAILED="behaviour_diff: FAILED"
mkdir -p "$OUT/parent" "$OUT/change"

die() {
  echo "behaviour_diff: $*" >&2
  exit 2
}

build() {
  tree=$1
  if [ ! -f "$tree/$BUILD_DIR/CMakeCache.txt" ]; then
    cmake -B "$tree/$BUILD_DIR" -S "$tree" >/dev/null || die "configure failed in $tree"
  fi
  cmake --build "$tree/$BUILD_DIR" -j "$JOBS" >/dev/null || die "build failed in $tree"
}

# Runs one bench the way scripts/run_all.sh does (same pinned arguments).
run_bench() {
  bin=$1
  json=$2
  case "$(basename "$bin")" in
    bench_openloop | bench_scaling_mesh) "$bin" --seed 42 --events 4096 --json "$json" ;;
    *) "$bin" --json "$json" ;;
  esac
}

# Collects every compared artifact of one tree into $OUT/<side>/.
collect() {
  tree=$1
  side=$2
  dest=$OUT/$side
  for b in "$tree/$BUILD_DIR"/bench/bench_*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    name=$(basename "$b")
    [ "$name" = bench_gbench_micro ] && continue
    run_bench "$b" "$dest/$name.json" >"$dest/$name.stdout" 2>"$dest/$name.stderr.log" ||
      echo "$FAILED with exit status $?" >>"$dest/$name.stdout"
  done
  for e in "$tree/$BUILD_DIR"/examples/*; do
    [ -f "$e" ] && [ -x "$e" ] || continue
    name=$(basename "$e")
    (cd "$tree" && "$e") >"$dest/example_$name.stdout" 2>"$dest/example_$name.stderr.log" ||
      echo "$FAILED with exit status $?" >>"$dest/example_$name.stdout"
  done
  (cd "$tree" && BUILD_DIR=$BUILD_DIR SB_STRESS_ARTIFACT_DIR="$dest/stress_artifacts" \
     sh scripts/run_stress.sh) >"$dest/stress.log" 2>&1
  status=$?
  grep '^\[stress fingerprint\]' "$dest/stress.log" >"$dest/stress.fingerprints"
  [ "$status" -eq 0 ] || echo "$FAILED with exit status $status" >>"$dest/stress.fingerprints"
  for w in $WORKLOADS; do
    # run.py builds into $CARGO_TARGET_DIR when that is set, which both trees
    # would share; unset, each tree builds its own .bench_build/.
    (cd "$tree" && env -u CARGO_TARGET_DIR python3 perfbench/run.py --workload "$w" --seed 1 \
       --seconds 2 --trace 0) >"$dest/perfbench_$w.stdout.log" 2>"$dest/perfbench_$w.stderr.log"
    status=$?
    sed -n -e '/^sim_/p' -e '/^ops_failed_frac /p' \
      -e 's/^\(round [^:]*\):.* \([0-9]* ops\),.*\(digest [0-9a-f]*\)$/\1: \2, \3/p' \
      "$dest/perfbench_$w.stdout.log" >"$dest/perfbench_$w.txt"
    [ "$status" -eq 0 ] || echo "$FAILED with exit status $status" >>"$dest/perfbench_$w.txt"
  done
}

# Prints the first differing metric of two bench JSON files, ignoring
# host-time keys; exits 1 on a difference and 2 if a file is unreadable.
json_diff() {
  python3 - "$1" "$2" <<'EOF'
import json, re, sys
HOST = re.compile(r"host|wall|ns_per_op")
def load(path):
    try:
        with open(path) as f:
            metrics = json.load(f).get("metrics", {})
    except (OSError, ValueError) as e:
        print(f"  {path}: {e}")
        sys.exit(2)
    return {k: v for k, v in metrics.items() if not HOST.search(k)}
a, b = load(sys.argv[1]), load(sys.argv[2])
for key in sorted(set(a) | set(b)):
    if a.get(key) != b.get(key):
        print(f"  {key}: parent {a.get(key)!r} change {b.get(key)!r}")
        sys.exit(1)
EOF
}

echo "building $PARENT and $HERE" >&2
build "$PARENT"
build "$HERE"
echo "running the parent tree" >&2
collect "$PARENT" parent
echo "running this tree" >&2
collect "$HERE" change

compared=0
for f in "$OUT"/parent/*; do
  name=$(basename "$f")
  [ -f "$f" ] || continue
  case "$name" in *.log) continue ;; esac
  other=$OUT/change/$name
  if [ ! -f "$other" ]; then
    echo "DIFF $name: missing from this tree"
    exit 1
  fi
  compared=$((compared + 1))
  case "$name" in
    *.json)
      json_diff "$f" "$other"
      case $? in
        0) ;;
        1)
          echo "DIFF $name (first differing metric above)"
          exit 1
          ;;
        *) die "$name is unreadable" ;;
      esac
      ;;
    *)
      if ! cmp -s "$f" "$other"; then
        echo "DIFF $name:"
        diff "$f" "$other" | head -n 8
        exit 1
      fi
      if grep -q "^$FAILED" "$f"; then
        die "$name failed the same way in both trees"
      fi
      ;;
  esac
done
for f in "$OUT"/change/*; do
  [ -f "$f" ] || continue
  [ -f "$OUT/parent/$(basename "$f")" ] || {
    echo "DIFF $(basename "$f"): new in this tree"
    exit 1
  }
done
# Identical but empty results prove nothing.
for side in parent change; do
  grep -q '^\[stress fingerprint\]' "$OUT/$side/stress.fingerprints" ||
    die "run_stress.sh printed no fingerprint in the $side tree (see $OUT/$side/stress.log)"
  for w in $WORKLOADS; do
    grep -q '^sim_digest ' "$OUT/$side/perfbench_$w.txt" ||
      die "perfbench $w printed no sim_digest in the $side tree (see $OUT/$side/perfbench_$w.stderr.log)"
  done
done
echo "behaviour identical: $compared artifacts compared (outputs in $OUT)"
