#!/usr/bin/env bash
# Bench-smoke job: the criterion benches compile and run once, the
# benchmark harness passes its self-test, the committed BENCH_sweep.json
# keeps every section, bench_baseline holds its floors, a tiny e6 sweep is
# deterministic, the three cold-ratio gates hold, and e9 over every free
# tree n ≤ 11 with both report files peaks within the memory gate.
#
# Usage: scripts/bench_smoke.sh   (from the repo root; writes bench-smoke/)
# The harness self-test builds perfbench/trace, which rewrites
# perfbench/trace/Cargo.lock; restore that file before committing.
set -euo pipefail
cd "$(dirname "$0")/.."

out=bench-smoke
mkdir -p "$out"

cargo bench --workspace --no-run
# The tracer links public items of rvz-bench and rvz-lowerbounds, and each
# workload's invocation and metric names must match BENCHMARK.json: a
# change that breaks either fails here instead of in a benchmark run.
python3 perfbench/test_bench.py
cargo bench --workspace -- --test

# The perf trajectory must never silently lose a benchmark, including the
# decide_cells section the exact decider added and the ensemble_cells
# section the k-agent engine added.
jq -e '.sweep_cells.speedup and .sweep_cells_variants.speedup and .decide_cells.speedup and .ensemble_cells.speedup' \
  BENCH_sweep.json > /dev/null \
  || { echo "BENCH_sweep.json is missing a benchmark section" >&2; exit 1; }

# Wall-clock numbers are no gate on noisy shared runners, but
# bench_baseline fails below its speedup floors (see docs/schemas.md), and
# its JSON, uploaded by CI, makes per-change regressions visible.
cargo run --release -p rvz-bench --bin bench_baseline -- "$out/BENCH_sweep.json"

# Determinism: a one-thread run and the stepping executor must both
# reproduce the two-thread replay rows byte for byte.
cargo build --release --bin experiments
exp=target/release/experiments
"$exp" --experiment e6 --sizes 8,16 --threads 2 --executor replay --json "$out/e6.json"
"$exp" --experiment e6 --sizes 8,16 --threads 1 --executor replay --json "$out/e6-t1.json"
cmp "$out/e6.json" "$out/e6-t1.json"
"$exp" --experiment e6 --sizes 8,16 --threads 2 --executor stepping --json "$out/e6-stepping.json"
cmp "$out/e6.json" "$out/e6-stepping.json"

scripts/output_overhead.sh "$out"
scripts/thread_scaling.sh "$out"
scripts/durable_overhead.sh "$out"
scripts/peak_memory.sh "$out"
