#!/usr/bin/env bash
# Output-overhead gate, run by scripts/bench_smoke.sh.
#
# Writing e9's evidence (the --json rows and the --certificates file) must
# not cost much more than the sweep that decides it. The script makes five
# cold e9 runs at the default sizes with both outputs, interleaved with five
# runs without them, and fails when the median user+sys CPU of the runs
# with outputs exceeds 2.0 times the median of the runs without.
#
# Usage: scripts/output_overhead.sh [OUTDIR]   (from the repo root)
# Writes each run's "label cpu_s wall_s" to OUTDIR/output-overhead.txt.
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-bench-smoke}
mkdir -p "$out"
results=$out/output-overhead.txt
. scripts/cold_ratio.sh

for _ in $(seq 5); do
  measure with-reports --experiment e9 \
    --json "$out/overhead-e9.json" --certificates "$out/overhead-e9-certs.json"
  measure without --experiment e9
done
check_ratio cpu 2.0 with-reports without "writing the reports costs more than the gate allows"
