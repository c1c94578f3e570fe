#!/usr/bin/env python3
"""Builds the perfbench binary in Release and runs one workload.

    python3 perfbench/run.py --workload saturated|chaos|offline|all --seed N
                             --seconds S --trace 0|1 [--smoke]

Run from the repository root (or any checkout of it). The first call
configures and builds perfbench/CMakeLists.txt under .bench_build/ (or
$CARGO_TARGET_DIR when set); later calls only re-check the build. The
binary runs single-threaded (MECAR_THREADS=1, one shard); its last stdout
line is the JSON result. `--workload all` runs every workload in turn, one
process each, and exits non-zero if any run does. Traced runs write a
chrome://tracing file and a self-time table to .bench_out/. Exits non-zero,
printing no result, when the sources are missing or the build fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
# Every workload the binary knows. BENCHMARK.json gates saturated and chaos;
# offline is measured too but too drift-sensitive to gate (README.md).
WORKLOADS = ("saturated", "chaos", "offline")


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(3)


def revision():
    """Git commit when the checkout is a repository, else a digest of the
    sources the binary is built from."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"mecar sources not found under {ROOT / 'src'}")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "perfbench"


def main():
    binary = build()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ, MECAR_THREADS="1")
    env.pop("MECAR_SHARDS", None)
    args = sys.argv[1:]
    runs = [args]
    for i in range(len(args) - 1):
        if args[i] == "--workload" and args[i + 1] == "all":
            runs = [args[:i + 1] + [w] + args[i + 2:] for w in WORKLOADS]
    rev = revision()
    status = 0
    for run_args in runs:
        cmd = [str(binary), *run_args, "--out-dir", str(out_dir),
               "--revision", rev]
        try:
            proc = subprocess.run(cmd, env=env, timeout=175)
        except subprocess.TimeoutExpired:
            fail("perfbench exceeded 175 s")
        status = status or proc.returncode
    sys.exit(status)


if __name__ == "__main__":
    main()
