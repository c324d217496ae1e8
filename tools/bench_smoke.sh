#!/usr/bin/env bash
# Smoke-runs EVERY bench binary with a tiny workload so benchmark bit-rot
# (a bench that no longer builds, crashes on startup, or trips an assert)
# fails CI instead of festering. Timing numbers from these runs are
# meaningless by design; the perf-gate job produces the real ones.
#
# Usage: tools/bench_smoke.sh [BENCH_DIR]   (default: build/bench)
set -u

BENCH_DIR="${1:-build/bench}"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

if ! ls "$BENCH_DIR"/bench_* >/dev/null 2>&1; then
  echo "bench_smoke: no bench binaries in $BENCH_DIR" >&2
  exit 1
fi

failures=0
total=0
for bin in "$BENCH_DIR"/bench_*; do
  [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  case "$name" in
    bench_micro_*)
      # google-benchmark targets: registered benchmarks at minimal
      # min_time. Suffixed form ("0.01s") for benchmark >= 1.8, bare
      # double for older releases.
      if "$bin" --benchmark_list_tests --benchmark_min_time=0.01s \
          >/dev/null 2>&1; then
        args=(--benchmark_min_time=0.01s)
      else
        args=(--benchmark_min_time=0.01)
      fi
      ;;
    bench_gate)
      args=(--scale 0.05 --out "$SCRATCH/gate.json")
      ;;
    bench_fig7_* | bench_fig8_* | bench_fig9_* | bench_fig10_* | \
    bench_squares_exclusion | bench_ablation_* | bench_future_longtail)
      # bench_hparam_common.h harnesses sweep top_n and max_candidates
      # themselves, so they take only the setup flags (and reject others).
      args=(--scale 200 --dim 8 --epochs 1)
      ;;
    *)
      # Paper-figure/table harnesses share the bench_common flag set.
      # --scale DIVIDES the paper's dataset sizes, so bigger is smaller.
      args=(--scale 200 --dim 8 --epochs 1 --top_n 20 --max_candidates 30)
      ;;
  esac
  total=$((total + 1))
  printf '== %s %s\n' "$name" "${args[*]}"
  status=0
  "$bin" "${args[@]}" >"$SCRATCH/$name.log" 2>&1 || status=$?
  if [ "$status" -ne 0 ]; then
    echo "FAILED: $name (exit $status)" >&2
    tail -n 30 "$SCRATCH/$name.log" >&2
    failures=$((failures + 1))
    continue
  fi
  # A bench that "succeeds" while producing nothing is a silent gap in
  # coverage, not a pass: demand non-empty stdout.
  if [ ! -s "$SCRATCH/$name.log" ]; then
    echo "FAILED: $name (exit 0 but produced no output)" >&2
    failures=$((failures + 1))
    continue
  fi
  # The perf gate reads bench_gate's record: it must be a parseable,
  # non-empty object (an empty file would vacuously pass downstream).
  if [ "$name" = bench_gate ] && ! python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    record = json.load(f)
if not isinstance(record, dict) or not record:
    sys.exit(f"{sys.argv[1]}: empty or non-object JSON record")
' "$SCRATCH/gate.json"; then
    echo "FAILED: $name (unusable JSON record)" >&2
    failures=$((failures + 1))
  fi
done

echo "bench_smoke: $((total - failures))/$total benches ran clean"
exit "$((failures > 0 ? 1 : 0))"
