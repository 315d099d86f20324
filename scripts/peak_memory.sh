#!/usr/bin/env bash
# Peak-memory gate, run by scripts/bench_smoke.sh.
#
# e9 over every free tree n ≤ 11 (81,160 cells) with --json and
# --certificates must run in bounded memory: rows and certificates leave
# the sweep one instance block at a time, so no run holds all of them. The
# script makes three cold runs at nproc threads, reads each run's peak RSS
# from ru_maxrss (python3's os.wait4, as perfbench/run.py does), and fails
# when the median exceeds 30 MB. A child's ru_maxrss starts at the RSS it
# inherits from the process that spawned it, so the reading is at least
# this script's own python3 (about 10 MB): a ceiling on the binary's peak.
#
# Usage: scripts/peak_memory.sh [OUTDIR]   (from the repo root)
# Writes each run's peak RSS in MB to OUTDIR/peak-memory.txt.
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-bench-smoke}
mkdir -p "$out"
cargo build --release --bin experiments

python3 - "$out" <<'PY'
import os, statistics, subprocess, sys

out = sys.argv[1]
limit_mb = 30.0
argv = ["target/release/experiments", "--experiment", "e9",
        "--sizes", "2,3,4,5,6,7,8,9,10,11",
        "--json", f"{out}/peak-memory-e9.json",
        "--certificates", f"{out}/peak-memory-e9-certs.json",
        "--threads", str(len(os.sched_getaffinity(0)))]
peaks = []
with open(f"{out}/peak-memory.txt", "w") as results:
    for _ in range(3):
        child = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            sys.exit(f"error: {' '.join(argv)} failed")
        peaks.append(usage.ru_maxrss / 1024.0)
        print(f"e9-json {peaks[-1]:.1f}", file=results)
median = statistics.median(peaks)
print("e9 n <= 11 with --json --certificates: peak RSS "
      + ", ".join(f"{p:.1f}" for p in peaks)
      + f" MB, median {median:.1f} MB (gate: at most {limit_mb:.0f} MB)")
if median > limit_mb:
    sys.exit("error: the e9 sweep holds more memory than the gate allows")
PY
