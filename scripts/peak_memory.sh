#!/usr/bin/env bash
# Peak-memory gate, run by scripts/bench_smoke.sh.
#
# e9 over every free tree n ≤ 11 (81,160 cells) with --json and
# --certificates must run in bounded memory, in process and under the
# --workers supervisor alike: rows and certificates leave the sweep one
# instance block at a time, so no run holds all of them. Two legs run the
# same grid: in process at nproc threads, and supervised with --workers 2
# --threads 1. The script makes three cold runs of each leg, reads each
# run's peak RSS from ru_maxrss (python3's os.wait4, as perfbench/run.py
# does), and fails when either leg's median exceeds 30 MB. The reading
# covers the whole process tree: it is the largest peak of the run and
# of the workers it reaped. A child's ru_maxrss starts at the RSS it
# inherits from the process that spawned it, so the reading is at least
# this script's own python3 (about 10 MB): a ceiling on the binary's peak.
#
# Usage: scripts/peak_memory.sh [OUTDIR]   (from the repo root)
# Writes each run's peak RSS in MB to OUTDIR/peak-memory.txt, labelled
# e9-json (in process) or e9-json-workers (supervised).
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
        "--certificates", f"{out}/peak-memory-e9-certs.json"]
legs = [("e9-json", "in process", ["--threads", str(len(os.sched_getaffinity(0)))]),
        ("e9-json-workers", "with --workers 2 --threads 1",
         ["--workers", "2", "--threads", "1"])]
failed = []
with open(f"{out}/peak-memory.txt", "w") as results:
    for label, what, extra in legs:
        peaks = []
        for _ in range(3):
            child = subprocess.Popen(argv + extra, stdout=subprocess.DEVNULL)
            _, status, usage = os.wait4(child.pid, 0)
            if os.waitstatus_to_exitcode(status) != 0:
                sys.exit(f"error: {' '.join(argv + extra)} failed")
            peaks.append(usage.ru_maxrss / 1024.0)
            print(f"{label} {peaks[-1]:.1f}", file=results)
        median = statistics.median(peaks)
        print(f"e9 n <= 11 with --json --certificates, {what}: peak RSS "
              + ", ".join(f"{p:.1f}" for p in peaks)
              + f" MB, median {median:.1f} MB (gate: at most {limit_mb:.0f} MB)")
        if median > limit_mb:
            failed.append(what)
if failed:
    sys.exit("error: the e9 sweep holds more memory than the gate allows ("
             + "; ".join(failed) + ")")
PY
