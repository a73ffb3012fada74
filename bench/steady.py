#!/usr/bin/env python3
"""Repeat each workload over several seeds and derive the regression bounds.

    python3 bench/steady.py [--seeds 10]

Runs ``bench/run.py`` once per (workload, seed), seeds 0 to N-1, one at a
time, with the workloads and ``run_seconds`` of ``BENCHMARK.json``, and
reports for each end-to-end metric its median, quartiles (``statistics.quantiles``
with n=4) and spread (q3 - q1) / median. The bound proposed for
``BENCHMARK.json`` is three times the largest spread over the workloads,
rounded up to the next 0.05 and capped at 0.25; ``setup_s`` always gets the
cap, since work moved into set-up should show and set-up runs share the
machine with everything else. It also checks that every run of a workload
failed the same share of its operations, on the same set of (check, command,
joint). Results go to
``bench/out/steady-<sha>.json`` with the git SHA, nproc and the Python and
numpy versions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BOUND_CAP = 0.25


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def proposed_bound(name: str, spread: float) -> float:
    if name == "setup_s":
        return BOUND_CAP
    return min(BOUND_CAP, max(0.05, math.ceil(3 * spread / 0.05) * 0.05))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    sha = git_sha()
    report = {"git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
              "numpy": np.__version__, "seconds": seconds, "workloads": {}}
    spreads: dict[str, float] = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["failed_checks"] = next(json.loads(line.split(" ", 1)[1]) for line in lines
                                           if line.startswith("failed_checks "))
            runs.append(result)
            values = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} {values}", flush=True)
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        failed_sets = {json.dumps(r["failed_checks"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        ok &= correct and len(shares) == 1 and len(failed_sets) == 1
        summary = {"correct": correct, "failed_shares": sorted(str(s) for s in shares),
                   "failed_check_sets": sorted(failed_sets), "runs": runs, "metrics": {}}
        print(f"  failed shares {summary['failed_shares']}, "
              f"{len(failed_sets)} distinct failed-check set(s)")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            spreads[name] = max(spreads.get(name, 0.0), spread)
            summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                        "unit": runs[0]["metrics"][name]["unit"]}
            print(f"  {name:12s} median {med:.5g} q1 {q1:.5g} q3 {q3:.5g} spread {spread:.4f}")
        report["workloads"][workload] = summary
    report["proposed_bounds"] = {name: proposed_bound(name, s) for name, s in spreads.items()}
    print("proposed bounds:", json.dumps(report["proposed_bounds"]))
    out = BENCH / "out" / f"steady-{sha[:12]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
