"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 bench/spread.py --runs 10 --seconds 15

For every workload, runs ``bench/run.py`` once per seed 1..runs (one after
the other) and prints, per end-to-end metric, the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``), the quartile
distance as a share of the median, and the share of failed operations.
These are the reference figures recorded in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=600)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=15)
    args = parser.parse_args()
    for workload in WORKLOADS:
        results = []
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, args.seconds)
            results.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()),
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: all correct={all(r['correct'] for r in results)} "
              f"failed shares={sorted(shares)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"  {name}: median={median:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={(q3 - q1) / median:.4f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
