#!/usr/bin/env python3
"""Cold-process benchmark of the release `experiments` binary.

    python3 perfbench/run.py --workload e9-json --seed 1 --seconds 30 --trace 0

Builds the binary from the checkout, prepares the workload (reference
outputs, and for e10-durable a filled --store), then runs the invocation as
a fresh process again and again for --seconds, alternating nproc and one
thread (or worker). Every run is checked against the reference digests.
With --trace 1 it also runs the per-layer tracer (perfbench/trace), one
phase per fresh process, and reports the per-layer metrics instead.

The last line of stdout is the result: one JSON object with `correct`,
`attempted`, `failed` and `metrics` (each metric with its value and unit).
See perfbench/README.md.
"""

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

SETUP_RUNS = 3  # setup_s is the median of this many preparation runs
MIN_SAMPLES = 3  # per thread count, even when --seconds runs out first
RUN_TIMEOUT_S = 120

END_TO_END = {
    "wall_s": "s",
    "wall_1t_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def sizes(lo, hi):
    return ",".join(str(n) for n in range(lo, hi + 1))


# `args` is the invocation minus --seed and the parallelism flags; `cores`
# says which flag takes nproc: "threads" (--threads N) or "workers"
# (--workers N --threads 1). `outputs` are the files each run must
# reproduce: "bytes" compares them whole, "records" compares their framed
# records as a set (journal and store record order follows completion
# order, which is free to vary). `inputs` are directories the preparation
# run fills and every later run reads and rewrites in place.
WORKLOADS = {
    "e9-json": {
        "args": ["--experiment", "e9", "--sizes", sizes(2, 11),
                 "--json", "e9.json", "--certificates", "e9-certs.json"],
        "cores": "threads",
        "outputs": {"e9.json": "bytes", "e9-certs.json": "bytes"},
    },
    "e11-replay": {
        "args": ["--experiment", "e11", "--sizes", sizes(3, 9),
                 "--executor", "replay", "--agents", "3"],
        "cores": "threads",
        "outputs": {},
    },
    "e10-durable": {
        "args": ["--experiment", "e10", "--sizes", sizes(2, 9),
                 "--checkpoint", "e10.journal", "--store", "store"],
        "cores": "workers",
        "outputs": {"e10.journal": "records", "store/trace.store": "records",
                    "store/solo.store": "records"},
        "inputs": ["store"],
    },
}


def nproc():
    return len(os.sched_getaffinity(0))


def cli(workload, seed, threads, workers=None):
    """The `experiments` arguments of one run; refuses more threads or
    workers than there are cores."""
    if max(threads, workers or 0) > nproc():
        raise SystemExit(f"refusing {max(threads, workers)} threads or workers on {nproc()} cores")
    args = WORKLOADS[workload]["args"] + ["--seed", str(seed), "--threads", str(threads)]
    return args + ([] if workers is None else ["--workers", str(workers)])


def invocation(workload, seed, cores):
    """The run on `cores` threads or workers; `cores=0` is the in-process
    preparation run of a workers workload."""
    if WORKLOADS[workload]["cores"] == "workers":
        return cli(workload, seed, 1, cores)
    return cli(workload, seed, cores)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- processes ---------------------------------------------------------------

class Run:
    """One finished process: wall, CPU (user + sys) and peak RSS of its
    whole tree, exit code, stdout bytes and stderr text."""

    def __init__(self, wall, cpu, rss_mb, code, stdout, stderr):
        self.wall, self.cpu, self.rss_mb, self.code = wall, cpu, rss_mb, code
        self.stdout, self.stderr = stdout, stderr

    def problems(self):
        out = [] if self.code == 0 else [f"exit code {self.code}"]
        out += [f"stderr: {line}" for line in self.stderr.splitlines() if "warning:" in line]
        return out


def become_subreaper():
    """Orphaned grandchildren (a worker whose supervisor died) are
    reparented here instead of to init, so they can be killed and reaped."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def stop_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def reap_all():
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def execute(argv, cwd, env):
    """Runs argv to completion in its own process group and measures it with
    wait4, whose rusage covers the process and every descendant it reaped.
    Anything left in the group afterwards is killed and reaped."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                 stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(RUN_TIMEOUT_S, stop_group, [child.pid])
        timer.start()
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    stop_group(child.pid)
    reap_all()
    return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
               child.returncode, out_path.read_bytes(),
               err_path.read_text(errors="replace"))


# --- output digests ------------------------------------------------------------

def canonical_records(data):
    """A framed-record file (u32 LE length, u32 LE CRC-32, body) with its
    first record kept first and the rest sorted. Raises on a torn or
    corrupt frame."""
    records, pos = [], 0
    while pos < len(data):
        if pos + 8 > len(data):
            raise ValueError("torn frame header")
        length, crc = struct.unpack_from("<II", data, pos)
        body = data[pos + 8:pos + 8 + length]
        if len(body) != length or zlib.crc32(body) != crc:
            raise ValueError("torn or corrupt record")
        records.append(body)
        pos += 8 + length
    ordered = records[:1] + sorted(records[1:])
    return b"".join(struct.pack("<II", len(b), zlib.crc32(b)) + b for b in ordered)


def digests(workload, run_dir, stdout):
    """SHA-256 of stdout and of every output file; an unreadable output
    digests as the reason it is unreadable, which never matches."""
    out = {"stdout": hashlib.sha256(stdout).hexdigest()}
    for name, kind in WORKLOADS[workload]["outputs"].items():
        try:
            data = (run_dir / name).read_bytes()
            if kind == "records":
                data = canonical_records(data)
            out[name] = hashlib.sha256(data).hexdigest()
        except (OSError, ValueError) as e:
            out[name] = f"unreadable: {e}"
    return out


def in_inputs(workload, name):
    return any(name.startswith(d + "/") for d in WORKLOADS[workload].get("inputs", []))


def copy_inputs(workload, prep, run_dir):
    for d in WORKLOADS[workload].get("inputs", []):
        shutil.copytree(prep / d, run_dir / d)


def mismatches(got, want):
    return [f"{name} differs from the preparation run" for name in want if got.get(name) != want[name]]


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# --- phases ----------------------------------------------------------------------

def build(env):
    """Builds the binary under test and the tracer (no-ops once built)."""
    for cmd in (["cargo", "build", "--release", "--offline", "--bin", "experiments"],
                ["cargo", "build", "--release", "--offline",
                 "--manifest-path", str(BENCH / "trace" / "Cargo.toml")]):
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)


def setup(workload, seed, exe, env):
    """The untimed preparation: SETUP_RUNS runs of the invocation (in
    process for a workers workload, which also fills its --store), each
    from an empty directory. They must agree; the last one's directory and
    digests are the reference. Returns (median seconds, digests, dir)."""
    cores = 0 if WORKLOADS[workload]["cores"] == "workers" else nproc()
    times, reference = [], None
    for i in range(SETUP_RUNS):
        start = time.perf_counter()
        prep = fresh_dir(WORK / "prep")
        run = execute([str(exe)] + invocation(workload, seed, cores), prep, env)
        got = digests(workload, prep, run.stdout)
        times.append(time.perf_counter() - start)
        problems = run.problems() + (mismatches(got, reference) if reference else [])
        if problems:
            raise SystemExit(f"preparation run {i + 1} failed: {'; '.join(problems)}")
        reference = got
    return statistics.median(times), reference, prep


def timed_runs(workload, seed, seconds, exe, env, reference, prep):
    """Alternates nproc and single-core runs for `seconds` (at least
    MIN_SAMPLES of each) in one directory seeded from the preparation run.
    Returns ({"nt": [Run], "1t": [Run]}, attempted, failed)."""
    run_dir = fresh_dir(WORK / "timed")
    copy_inputs(workload, prep, run_dir)
    samples = {"nt": [], "1t": []}
    attempted = failed = 0
    modes = [("nt", nproc()), ("1t", 1)]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or min(map(len, samples.values())) < MIN_SAMPLES:
        if attempted >= 8 * MIN_SAMPLES and failed * 2 > attempted:
            break
        for mode, cores in modes:
            for name in WORKLOADS[workload]["outputs"]:
                if not in_inputs(workload, name):
                    (run_dir / name).unlink(missing_ok=True)
            run = execute([str(exe)] + invocation(workload, seed, cores), run_dir, env)
            attempted += 1
            problems = run.problems() + mismatches(digests(workload, run_dir, run.stdout), reference)
            if problems:
                failed += 1
                log(f"{mode} run failed: {'; '.join(problems)}")
            else:
                samples[mode].append(run)
        modes.reverse()
    return samples, attempted, failed


def traced(workload, seed, exe, tracer, env, reference, prep):
    """One fresh tracer process per phase. Returns (per-layer metrics,
    total seconds, attempted, failed)."""
    w = WORKLOADS[workload]
    trace_dir = fresh_dir(WORK / "trace")
    copy_inputs(workload, prep, trace_dir)

    # (phase, the name its "sweep.run_ns" is reported under, arguments)
    phases = [("layers", None, cli(workload, seed, 1)),
              ("sweep", "sweep.run_1t_ns", cli(workload, seed, 1)),
              ("sweep", "sweep.run_nt_ns", cli(workload, seed, nproc()))]
    if w.get("inputs"):
        phases.append(("stores", None, cli(workload, seed, 1)))
    if w["cores"] == "workers":
        phases.append(("supervisor", None, cli(workload, seed, 1, nproc())))

    metrics, total, failed = {}, 0.0, 0
    for phase, run_ns_name, args in phases:
        run = execute([str(tracer), phase, str(trace_dir), str(exe), "--"] + args, trace_dir, env)
        total += run.wall
        problems = run.problems()
        # The layers phase writes what the invocation writes except the
        # inputs, which the stores phase rewrites.
        if phase in ("layers", "stores"):
            stdout = trace_dir / "stdout.txt"
            got = digests(workload, trace_dir, stdout.read_bytes() if stdout.exists() else b"")
            want = {k: v for k, v in reference.items() if in_inputs(workload, k) == (phase == "stores")}
            problems += mismatches(got, want)
        if problems:
            failed += 1
            log(f"trace phase {phase} failed: {'; '.join(problems)}")
            continue
        found = json.loads(run.stdout.decode().strip().splitlines()[-1])
        if run_ns_name:
            found = {run_ns_name: found["sweep.run_ns"]}
        metrics.update(found)
    return metrics, total, len(phases), failed


# --- provenance ------------------------------------------------------------------

def provenance():
    """CPU model, nproc, rustc version, and the commit of the code under
    test (from git when the checkout is a repository; the SHA-256 of the
    sources always)."""
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip() or None
    sources = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("src", "crates", "shims"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.suffix in (".rs", ".toml"))
    for path in files:
        sources.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"cpu": cpu, "nproc": nproc(), "rustc": rustc, "commit": commit,
            "sources_sha256": sources.hexdigest()}


def layer_units():
    layers = json.loads((BENCH / "layers.json").read_text())["layers"]
    return {name: unit for layer in layers for name, unit in layer["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if not (ROOT / "Cargo.toml").is_file():
        raise SystemExit(f"no cargo workspace at {ROOT}: the benchmark builds it from source")

    become_subreaper()
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else ROOT / target
    env = {k: v for k, v in os.environ.items() if not k.startswith("RVZ_")}
    env["CARGO_TARGET_DIR"] = str(target)
    env["TMPDIR"] = str(WORK / "tmp")
    fresh_dir(WORK)
    fresh_dir(WORK / "tmp")
    build(env)
    exe = target / "release" / "experiments"
    tracer = target / "release" / "perfbench-trace"

    setup_s, reference, prep = setup(opts.workload, opts.seed, exe, env)
    samples, attempted, failed = timed_runs(
        opts.workload, opts.seed, opts.seconds, exe, env, reference, prep)
    if not samples["nt"] or not samples["1t"]:
        raise SystemExit("no run passed its checks")
    median = lambda mode, field: statistics.median(getattr(r, field) for r in samples[mode])
    wall_s = median("nt", "wall")

    if opts.trace:
        units = layer_units()
        found, trace_s, trace_attempted, trace_failed = traced(
            opts.workload, opts.seed, exe, tracer, env, reference, prep)
        attempted += trace_attempted
        failed += trace_failed
        found["trace.overhead_s"] = trace_s - wall_s
        unknown = set(found) - set(units)
        if unknown:
            raise SystemExit(f"tracer reported unlisted metrics: {sorted(unknown)}")
        values = {name: found.get(name, 0) for name in units}
    else:
        units = END_TO_END
        values = {
            "wall_s": wall_s,
            "wall_1t_s": median("1t", "wall"),
            "cpu_s": median("nt", "cpu"),
            "peak_rss_mb": median("nt", "rss_mb"),
            "setup_s": setup_s,
        }

    info = provenance()
    info.update(workload=opts.workload, seed=opts.seed,
                samples={mode: len(runs) for mode, runs in samples.items()},
                fail_frac=failed / attempted)
    print("machine: " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()
