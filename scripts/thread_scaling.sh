#!/usr/bin/env bash
# Thread-scaling gate, run by scripts/bench_smoke.sh.
#
# More threads must never make a run slower. The script makes five cold
# runs of e11's 3-agent trace-replay grid (every free tree n ≤ 9) at
# --threads 1, interleaved with five at --threads $(nproc), and fails when
# the median wall time at nproc threads exceeds 1.0 times the median at one
# thread. With a single core there is nothing to compare, and the script
# exits 0.
#
# Usage: scripts/thread_scaling.sh [OUTDIR]   (from the repo root)
# Writes each run's "label cpu_s wall_s" to OUTDIR/thread-scaling.txt.
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-bench-smoke}
threads=$(nproc)
if [ "$threads" -lt 2 ]; then
  echo "thread scaling: nproc is $threads, so there is nothing to compare; skipping"
  exit 0
fi
mkdir -p "$out"
results=$out/thread-scaling.txt
. scripts/cold_ratio.sh

grid=(--experiment e11 --sizes 3,4,5,6,7,8,9 --executor replay --agents 3)
for _ in $(seq 5); do
  measure threads=1 "${grid[@]}" --threads 1
  measure "threads=$threads" "${grid[@]}" --threads "$threads"
done
check_ratio wall 1.0 "threads=$threads" threads=1 "more threads made the run slower"
