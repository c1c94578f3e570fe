#!/usr/bin/env python3
"""Stability evidence for the benchmark: runs every workload over several
seeds in one or more sets separated in time, and reports per metric the
median, quartiles, spread (IQR / median) and set-to-set drift of the
medians, checked against the bounds in BENCHMARK.json.

    python3 perfbench/stability.py [--sets 2] [--seeds 10]
        [--workloads saturated,chaos,offline]
        [--out perfbench/STABILITY.md] [--json FILE]

Run from the repository root. Sets run back to back; within a set each seed
(1..N) runs every workload in turn, so host drift reaches all workloads
alike. Every run measures BENCHMARK.json's run_seconds. setup_s is checked
the way the benchmark's acceptance rule checks it: its set-to-set drift must
stay within its bound, while its spread is reported but not checked
(README.md, "Stability and bounds").
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                 f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correctness failure\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    ap.add_argument("--json", default="")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = list(range(1, args.seeds + 1))
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    runs = {w: [[] for _ in range(args.sets)] for w in workloads}
    started = time.strftime("%Y-%m-%d %H:%M:%S")
    for s in range(args.sets):
        for seed in seeds:
            for w in workloads:
                t0 = time.time()
                runs[w][s].append(run_once(spec["command"], w, seed, seconds))
                print(f"set {s + 1} seed {seed} {w}: {time.time() - t0:.1f} s",
                      file=sys.stderr, flush=True)

    report = {"started": started, "seconds": seconds, "seeds": seeds,
              "sets": args.sets, "workloads": {}}
    ok = True
    md = [f"# Stability evidence\n",
          f"{args.sets} set(s) x {len(seeds)} seeds (seeds {seeds[0]}-"
          f"{seeds[-1]}), run_seconds {seconds}, started {started}.",
          "spread = (Q3 - Q1) / median over the seeds of one set; drift = "
          "worst-direction change of the median from set 1 to each later "
          "set, as a share of set 1's median. A metric passes when every "
          "spread (setup_s exempt) and every drift is within its bound.\n"]
    for w in workloads:
        report["workloads"][w] = {"runs": runs[w]}
        md.append(f"## {w}\n")
        md.append("| metric | bound | " + " | ".join(
            f"set {s + 1} median [Q1, Q3] (spread)" for s in range(args.sets))
            + " | drift | ok |")
        md.append("|---|---|" + "---|" * args.sets + "---|---|")
        for name, meta in bounds.items():
            sets = [summarize([r[name] for r in runs[w][s]])
                    for s in range(args.sets)]
            base = sets[0]["median"]
            sign = 1.0 if meta["better"] == "lower" else -1.0
            drift = max((sign * (st["median"] - base) / base if base else 0.0)
                        for st in sets[1:]) if args.sets > 1 else 0.0
            spread_ok = name == "setup_s" or all(
                st["spread"] <= meta["bound"] for st in sets)
            passed = spread_ok and drift <= meta["bound"]
            ok &= passed
            report["workloads"][w][name] = {"bound": meta["bound"],
                                            "sets": sets, "drift": drift,
                                            "ok": passed}
            cells = " | ".join(
                f"{st['median']:.6g} [{st['q1']:.6g}, {st['q3']:.6g}] "
                f"({100 * st['spread']:.2f}%)" for st in sets)
            md.append(f"| {name} | {meta['bound']} | {cells} | "
                      f"{100 * drift:+.2f}% | {'yes' if passed else 'NO'} |")
        md.append("")
    text = "\n".join(md) + "\n"
    print(text)
    if args.out:
        Path(args.out).write_text(text)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
