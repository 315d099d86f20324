#!/usr/bin/env bash
# Output-overhead gate — CI's bench-smoke leg and `just bench-smoke`.
#
# Writing e9's evidence (the --json rows and the --certificates file) must
# not cost much more than the sweep that decides it. The script makes five
# cold e9 runs at the default sizes with both outputs, interleaved with five
# runs without them, prints both medians, and fails when the median
# user+sys CPU of the runs with outputs exceeds MAX_RATIO times the median
# of the runs without. Both sides run in one job on one machine, so the
# runner's speed cancels out of the ratio.
#
# Usage: scripts/output_overhead.sh [OUTDIR]   (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-bench-smoke}
runs=5
max_ratio=2.0
mkdir -p "$out"

cargo build --release --bin experiments
exp=target/release/experiments

# One cold run of `experiments ARGS...`; prints "cpu_s wall_s".
measure() {
  local TIMEFORMAT='%3U %3S %3R' times
  times=$({ time "$exp" "$@" > /dev/null 2>&1; } 2>&1)
  awk '{ printf "%.3f %.3f\n", $1 + $2, $3 }' <<<"$times"
}

# Median of the numbers in column $1 of stdin.
median() {
  awk -v c="$1" '{ print $c }' | sort -n |
    awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

with="" without=""
for _ in $(seq "$runs"); do
  with+="$(measure --experiment e9 --json "$out/overhead-e9.json" \
    --certificates "$out/overhead-e9-certs.json")"$'\n'
  without+="$(measure --experiment e9)"$'\n'
done

cpu_with=$(median 1 <<<"${with%$'\n'}")
cpu_without=$(median 1 <<<"${without%$'\n'}")
wall_with=$(median 2 <<<"${with%$'\n'}")
wall_without=$(median 2 <<<"${without%$'\n'}")
echo "e9 with --json --certificates: median cpu ${cpu_with}s, wall ${wall_with}s ($runs runs)"
echo "e9 without outputs:            median cpu ${cpu_without}s, wall ${wall_without}s ($runs runs)"
awk -v a="$cpu_with" -v b="$cpu_without" -v max="$max_ratio" 'BEGIN {
  if (b <= 0) { print "error: runs without outputs measured no CPU time"; exit 1 }
  printf "output overhead: %.2fx CPU (gate: at most %.1fx)\n", a / b, max
  if (a / b > max) { print "error: writing the reports costs more than the gate allows"; exit 1 }
}'
