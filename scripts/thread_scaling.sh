#!/usr/bin/env bash
# Thread-scaling gate — CI's bench-smoke leg and `just bench-smoke`.
#
# More threads must never make a run slower. The script makes five cold
# runs of e11's 3-agent trace-replay grid (every free tree n ≤ 9) at
# --threads 1, interleaved with five at --threads $(nproc), prints both
# medians, and fails when the median wall time at nproc threads exceeds
# MAX_RATIO times the median at one thread. Both sides run in one job on
# one machine, so the runner's speed cancels out of the ratio. With a
# single core there is nothing to compare, and the script exits 0.
#
# Usage: scripts/thread_scaling.sh [OUTDIR]   (from the repo root)
# Writes each run's "threads cpu_s wall_s" to OUTDIR/thread-scaling.txt.
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-bench-smoke}
runs=5
max_ratio=1.0
threads=$(nproc)

if [ "$threads" -lt 2 ]; then
  echo "thread scaling: nproc is $threads, so there is nothing to compare; skipping"
  exit 0
fi
mkdir -p "$out"

cargo build --release --bin experiments
exp=target/release/experiments

# One cold e11 replay run at $1 threads; prints "threads cpu_s wall_s".
measure() {
  local TIMEFORMAT='%3U %3S %3R' times
  times=$({ time "$exp" --experiment e11 --sizes 3,4,5,6,7,8,9 --executor replay \
    --agents 3 --threads "$1" > /dev/null 2>&1; } 2>&1)
  awk -v t="$1" '{ printf "%d %.3f %.3f\n", t, $1 + $2, $3 }' <<<"$times"
}

# Median of the numbers in column $1 of stdin.
median() {
  awk -v c="$1" '{ print $c }' | sort -n |
    awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

one="" many=""
for _ in $(seq "$runs"); do
  one+="$(measure 1)"$'\n'
  many+="$(measure "$threads")"$'\n'
done
printf '%s%s' "$one" "$many" > "$out/thread-scaling.txt"

wall_one=$(median 3 <<<"${one%$'\n'}")
wall_many=$(median 3 <<<"${many%$'\n'}")
cpu_one=$(median 2 <<<"${one%$'\n'}")
cpu_many=$(median 2 <<<"${many%$'\n'}")
echo "e11 replay, 1 thread: median wall ${wall_one}s, cpu ${cpu_one}s ($runs runs)"
echo "e11 replay, $threads threads: median wall ${wall_many}s, cpu ${cpu_many}s ($runs runs)"
awk -v a="$wall_many" -v b="$wall_one" -v t="$threads" -v max="$max_ratio" 'BEGIN {
  if (b <= 0) { print "error: the one-thread runs measured no wall time"; exit 1 }
  printf "thread scaling: %d threads take %.2fx the wall time of 1 (gate: at most %.1fx)\n", t, a / b, max
  if (a / b > max) { print "error: more threads made the run slower"; exit 1 }
}'
