#!/usr/bin/env python3
"""Self-test of the benchmark: the names in BENCHMARK.json are exactly the
names the harness prints, and the reverse.

    python3 perfbench/test_bench.py

The static checks compare BENCHMARK.json with run.py and layers.json. The
end-to-end check runs the harness once per workload in each mode with a
one-second budget (about two minutes on two cores, plus the first build)
and compares the metric names it prints.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.dont_write_bytecode = True

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


class Names(unittest.TestCase):
    def test_workloads_match_the_harness(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOADS))

    def test_end_to_end_metrics_match_the_harness(self):
        self.assertEqual(names("end_to_end"), run.END_TO_END)

    def test_per_layer_metrics_match_the_layer_map(self):
        self.assertEqual(names("per_layer"), run.layer_units())

    def test_layer_map_cites_known_names(self):
        workloads = set(run.WORKLOADS)
        for layer in json.loads((BENCH / "layers.json").read_text())["layers"]:
            self.assertLessEqual(set(layer["moves"]), set(run.END_TO_END), layer["layer"])
            self.assertLessEqual(set(layer["workloads"]), workloads, layer["layer"])

    def test_command_runs_the_harness(self):
        self.assertEqual(SPEC["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(SPEC["paths"], ["perfbench"])

    def test_every_workload_prints_every_metric(self):
        for workload in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = subprocess.run(
                        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                        cwd=run.ROOT, capture_output=True, text=True, check=True)
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], out.stderr[-2000:])
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, names(section))


if __name__ == "__main__":
    unittest.main()
