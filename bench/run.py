"""Benchmark for specal: one workload, one seed, one JSON line of metrics.

Usage (from the repository root):

    python3 bench/run.py --workload calibrate-fine --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` of the checkout.  A run sets the
workload up several times (``setup_s`` is the median), makes one round
under tracemalloc (``peak_mib``), then repeats whole rounds of the
workload's operations until ``--seconds`` have passed (``run_s`` is the
median round) and checks the outputs of the final round.  With
``--trace 1`` it instead patches specal's public functions, records one
set-up and the rounds, and prints the per-layer metrics.  The last line
of standard output is the result object.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
BYTES_PER_MIB = 1024.0 * 1024.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it says."""
    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle
                    if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def timed(func) -> tuple[float, object]:
    gc.collect()
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


def run_rounds(workload, seconds: float):
    """Whole rounds until ``seconds`` have passed; at least one."""
    times, digests = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        elapsed, (n, bad, digest) = timed(workload.round)
        times.append(elapsed)
        digests.append(digest)
        attempted += n
        failed += bad
        if time.perf_counter() - start >= seconds:
            return times, digests, attempted, failed


def peak_round(workload) -> tuple[float, tuple[int, int, str]]:
    """One round under tracemalloc: peak traced heap in MiB."""
    gc.collect()
    tracemalloc.start()
    try:
        outcome = workload.round()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / BYTES_PER_MIB, outcome


def check_same_outputs(digests) -> list[str]:
    """Every round wrote the same outputs, byte for byte."""
    distinct = len(set(digests))
    return [] if distinct == 1 else [
        f"outputs differ between rounds: {distinct} distinct digests"]


def per_layer(recorder, setup_values: dict, rounds: int, traced_times) -> dict:
    """One set-up plus the average round, for every per-layer metric."""
    import tracing

    final = recorder.snapshot()
    metrics = {}
    for name, unit in tracing.metric_names():
        if name.endswith(".peak_mib"):
            value = final.get(name, 0.0)
        else:
            before = setup_values.get(name, 0.0)
            value = before + (final.get(name, 0.0) - before) / rounds
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.run_s"] = {"value": statistics.median(traced_times), "unit": "s"}
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import tracing
    from workloads import WORKLOADS, Cli

    recorder = tracing.Recorder()
    if trace:
        tracing.install(recorder)
    workload = WORKLOADS[name](seed, workdir, Cli(recorder))
    if trace:
        recorder.active = True
        workload.setup()
        setup_values = recorder.snapshot()
    else:
        setup_times = [timed(workload.setup)[0] for _ in range(workload.setup_repeats)]
        # The memory round comes first so that it also warms the program
        # up: the timed rounds then all run in the same steady state.
        peak_mib, first = peak_round(workload)
    times, digests, attempted, failed = run_rounds(workload, seconds)
    if trace:
        recorder.active = False
    else:
        digests.append(first[2])
        attempted += first[0]
        failed += first[1]
    errors = check_same_outputs(digests) + workload.check()
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    if trace:
        metrics = per_layer(recorder, setup_values, len(times), times)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": statistics.median(times), "unit": "s"},
            "peak_mib": {"value": peak_mib, "unit": "MiB"},
        }
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "specal" / "__init__.py").is_file():
        print(f"error: no specal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    blas_env = " ".join(f"{var}={os.environ.get(var, '(unset)')}" for var in BLAS_ENV)
    import numpy  # noqa: F401 - loads OpenBLAS so its thread count can be read
    print(f"environment: nproc={os.cpu_count()} blas_threads={blas_threads()} {blas_env}")
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
