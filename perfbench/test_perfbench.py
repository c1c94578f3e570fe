#!/usr/bin/env python3
"""The benchmark's own test: runs every workload in reduced-size smoke mode,
untraced and traced, and checks the output contract.

    python3 perfbench/test_perfbench.py

Run from the repository root; takes about a minute after the first build.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("saturated", "chaos", "offline")


def run(workload, trace, seed=1, cwd=ROOT):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class SmokeContract(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        self.assertTrue(any(l.startswith("# config {") for l in lines))
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True, proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        if trace:
            self.assertEqual(result["metrics"]["obs.counter_mismatches"]
                             ["value"], 0, proc.stdout)
            stem = ROOT / ".bench_out" / f"{workload}-seed1"
            trace_file = Path(str(stem) + ".trace.json")
            events = json.loads(trace_file.read_text())["traceEvents"]
            self.assertTrue(any(e.get("ph") == "X" for e in events))
            self.assertTrue(Path(str(stem) + ".selftime.txt").is_file())
        else:
            for m in SPEC["end_to_end"]:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                   m["name"])
        return result

    def test_workloads(self):
        gated = {w["name"] for w in SPEC["workloads"]}
        self.assertLessEqual(gated, set(WORKLOADS))
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    self.check(w, trace)

    def test_same_seed_same_decisions(self):
        a = json.loads(run("chaos", 0, seed=5).stdout.splitlines()[-1])
        b = json.loads(run("chaos", 0, seed=5).stdout.splitlines()[-1])
        for name in ("reward", "completion_ratio"):
            self.assertEqual(a["metrics"][name], b["metrics"][name])

    def test_refuses_without_sources(self):
        lone = ROOT / ".bench_out" / "lone"
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", lone / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", lone)
        try:
            proc = run("saturated", 0, cwd=lone)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(lone, ignore_errors=True)

    def test_unknown_workload_fails(self):
        proc = run("no-such-workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())
