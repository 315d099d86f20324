#!/usr/bin/env bash
# Durable-overhead gate — CI's bench-smoke leg and `just bench-smoke`.
#
# Crash safety must not cost a multiple of the work it protects. The
# script makes five cold runs of e10's schedule grid (every free tree
# n ≤ 9) with --workers 2 --threads 1 --checkpoint, interleaved with five
# in-process runs at --threads 1 without a journal, prints both medians,
# and fails when the median wall time of the durable runs exceeds
# MAX_RATIO times the in-process median. Both sides run in one job on one
# machine, so the runner's speed cancels out of the ratio. With a single
# core the two workers would share it, and the script exits 0.
#
# Usage: scripts/durable_overhead.sh [OUTDIR]   (from the repo root)
# Writes each run's "mode cpu_s wall_s" to OUTDIR/durable-overhead.txt.
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-bench-smoke}
runs=5
max_ratio=3.0
cores=$(nproc)

if [ "$cores" -lt 2 ]; then
  echo "durable overhead: nproc is $cores, so two workers would share one core; skipping"
  exit 0
fi
mkdir -p "$out"

cargo build --release --bin experiments
exp=target/release/experiments
journal="$out/durable-overhead.ckpt"

# One cold e10 n ≤ 9 run at one thread plus the flags after the mode
# name $1; prints "mode cpu_s wall_s".
measure() {
  local mode=$1 TIMEFORMAT='%3U %3S %3R' times
  shift
  rm -f "$journal"
  times=$({ time "$exp" --experiment e10 --sizes 2,3,4,5,6,7,8,9 --threads 1 "$@" \
    > /dev/null 2>&1; } 2>&1)
  awk -v m="$mode" '{ printf "%s %.3f %.3f\n", m, $1 + $2, $3 }' <<<"$times"
}

# Median of the numbers in column $1 of stdin.
median() {
  awk -v c="$1" '{ print $c }' | sort -n |
    awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

plain="" durable=""
for _ in $(seq "$runs"); do
  plain+="$(measure in-process)"$'\n'
  durable+="$(measure durable --workers 2 --checkpoint "$journal")"$'\n'
done
rm -f "$journal"
printf '%s%s' "$plain" "$durable" > "$out/durable-overhead.txt"

wall_plain=$(median 3 <<<"${plain%$'\n'}")
wall_durable=$(median 3 <<<"${durable%$'\n'}")
cpu_plain=$(median 2 <<<"${plain%$'\n'}")
cpu_durable=$(median 2 <<<"${durable%$'\n'}")
echo "e10 n <= 9, in process: median wall ${wall_plain}s, cpu ${cpu_plain}s ($runs runs)"
echo "e10 n <= 9, --workers 2 --checkpoint: median wall ${wall_durable}s, cpu ${cpu_durable}s ($runs runs)"
awk -v a="$wall_durable" -v b="$wall_plain" -v max="$max_ratio" 'BEGIN {
  if (b <= 0) { print "error: the in-process runs measured no wall time"; exit 1 }
  printf "durable overhead: the durable runs take %.2fx the in-process wall time (gate: at most %.1fx)\n", a / b, max
  if (a / b > max) { print "error: --workers 2 --checkpoint costs too much over the in-process run"; exit 1 }
}'
