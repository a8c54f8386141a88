#!/usr/bin/env python3
"""Builds and runs the GraphCachePlus end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload hot_reads --seed 1 --seconds 10 --trace 0

Workloads: hot_reads, churn_mixed, constrained_concurrent. The first run
configures and builds the gcp_perfbench binary (Release) under
.bench_build/; later runs rebuild incrementally. Its report goes to stdout;
the last line is one JSON object with the keys correct, attempted, failed
and metrics
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
Build output goes to stderr. Exits non-zero when the build fails, an answer
disagrees with uncached Method M, or the result is malformed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "run"
BINARY = BUILD_DIR / "gcp_perfbench"
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no GraphCachePlus sources next to {BENCH_DIR.name}/ (expected {ROOT}/src)")
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "gcp_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny: small corpus, for the self-test")
    parser.add_argument("--corrupt-answer", action="store_true",
                        help="make one answer wrong on purpose (oracle self-test)")
    args = parser.parse_args()

    build()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale, "--work-dir", str(WORK_DIR)]
    if args.corrupt_answer:
        command.append("--corrupt-answer")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"gcp_perfbench exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").splitlines()
    if not lines:
        fail(f"gcp_perfbench printed nothing (exit code {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"gcp_perfbench's last line is not JSON (exit code {run.returncode})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("gcp_perfbench's result has unexpected keys")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0 or not result["correct"]:
        sys.exit(run.returncode or 1)


if __name__ == "__main__":
    main()
