# Timed cold runs, medians and the ratio check of the three cold-ratio
# gates: output_overhead.sh, thread_scaling.sh and durable_overhead.sh.
# A gate sets `results`, the file that collects its runs, sources this
# file from the repo root, times interleaved runs of two kinds with
# `measure`, and bounds the ratio of their medians with `check_ratio`.
# Both kinds run in one job on one machine, so the runner's speed cancels
# out of the ratio.

cargo build --release --bin experiments
exp=target/release/experiments
: > "$results"

# One cold run of `experiments ARGS...` ($2...); appends "$1 cpu_s wall_s"
# to $results, where cpu_s is user + sys time.
measure() {
  local label=$1 TIMEFORMAT='%3U %3S %3R' times
  shift
  times=$({ time "$exp" "$@" > /dev/null 2>&1; } 2>&1)
  awk -v l="$label" '{ printf "%s %.3f %.3f\n", l, $1 + $2, $3 }' <<<"$times" >> "$results"
}

# Median of column $2 (2 = cpu_s, 3 = wall_s) over the runs labelled $1.
median() {
  awk -v l="$1" -v c="$2" '$1 == l { print $c }' "$results" | sort -n |
    awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

# Prints the medians of the runs labelled $3 and $4, and each run's
# CPU/wall (a multi-threaded run that lost its cores to the host reads
# about 1.0), and fails with the message $5 when the median $1 time (cpu
# or wall) of the $3 runs exceeds $2 times the median of the $4 runs.
check_ratio() {
  local metric=$1 max=$2 top=$3 base=$4 col=3 label
  if [ "$metric" = cpu ]; then col=2; fi
  for label in "$top" "$base"; do
    echo "$label: median cpu $(median "$label" 2)s, wall $(median "$label" 3)s;" \
      "cpu/wall per run: $(awk -v l="$label" '$1 == l {
        printf "%s%.2f", sep, ($3 > 0 ? $2 / $3 : 0); sep = " " }' "$results")"
  done
  awk -v a="$(median "$top" "$col")" -v b="$(median "$base" "$col")" -v max="$max" \
    -v m="$metric" -v top="$top" -v base="$base" -v fail="$5" 'BEGIN {
    if (b <= 0) { print "error: the " base " runs measured no " m " time"; exit 1 }
    printf "%s takes %.2fx the %s time of %s (gate: at most %.1fx)\n", top, a / b, m, base, max
    if (a / b > max) { print "error: " fail; exit 1 }
  }'
}
