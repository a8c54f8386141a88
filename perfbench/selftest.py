#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark: runs every workload of
BENCHMARK.json on a small corpus, untraced and traced, and fails when a
named metric is missing or has the wrong unit, or when the answer oracle
fails. It also checks that the oracle catches a deliberately wrong answer.

Usage, from the repository root:  python3 perfbench/selftest.py
Takes about a minute (the first run also builds the benchmark).
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
SECONDS = "1"


def run(workload, trace, *extra):
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", "7", "--seconds", SECONDS,
                                 "--trace", str(trace), "--scale", "tiny", *extra],
                          stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result["correct"] or result["failed"]:
                errors.append(f"{where}: exit {code}, result {result and result['failed']} failed")
                continue
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    errors.append(f"{where}: metric {metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    errors.append(f"{where}: {metric['name']} unit {got['unit']}")
            extra = set(result["metrics"]) - {m["name"] for m in wanted}
            if extra:
                errors.append(f"{where}: unlisted metrics {sorted(extra)}")
            print(f"ok  {where}: {result['attempted']} operations checked", flush=True)
    code, result = run(spec["workloads"][0]["name"], 0, "--corrupt-answer")
    if code == 0 or result is None or result["correct"] or result["failed"] != 1:
        errors.append(f"oracle missed a corrupted answer (exit {code})")
    else:
        print("ok  oracle rejects a corrupted answer", flush=True)
    for e in errors:
        print("FAIL " + e)
    print("self-test " + ("FAILED" if errors else "passed"))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
