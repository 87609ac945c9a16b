"""Span recorder that times specal's public functions from outside.

Every wrapped function is patched in its own module and in every specal
module that imported the name, so calls through any import path are seen.
Spans are kept in memory and reduced to per-layer figures when the run
ends.  The program itself is not changed: with tracing off nothing is
patched and the benchmark calls the original functions.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time
import tracemalloc
from collections import defaultdict

# Layer -> public functions wrapped in that module.  Generators (the
# leave-one-out paths) are timed while they run, one span per resumption.
LAYERS = {
    "io": ("load_spectra", "load_concentrations", "load_model", "save_model",
           "load_spread", "save_spread", "save_predictions",
           "load_value_table", "save_sep"),
    "basis": ("design_matrix", "penalty_matrix", "make_knots",
              "knots_from_grid"),
    "model": ("assemble_design",),
    "calibrate": ("fit_ols", "fit_penalized", "select_lambda",
                  "loo_coefficients", "fit_covariance", "fit_gls",
                  "gls_loo_coefficients"),
    "predict": ("jackknife_sd", "predict_concentrations",
                "prediction_report", "sep"),
    "baselines": ("fit_mlr", "fit_pcr", "fit_pls", "predict_multivariate"),
    "simulate": ("generate_dataset", "gp_cholesky", "prediction_spectra",
                 "run_jackknife_study"),
}
STRATEGY_METHODS = ("fit", "jackknife_fits", "predict_fitted")
CLI_COMMANDS = ("calibrate", "jackknife", "predict", "sep", "baselines")
GENERATORS = {"calibrate.loo_coefficients", "calibrate.gls_loo_coefficients",
              "methods.jackknife_fits"}
IO_READS = {"load_spectra", "load_concentrations", "load_model",
            "load_spread", "load_value_table"}
# Argument position of the output path of each io writer.
IO_WRITE_PATH_ARG = {"save_model": 1, "save_spread": 2,
                     "save_predictions": 2, "save_sep": 2}
IO_WRITES = set(IO_WRITE_PATH_ARG)

BYTES_PER_MIB = 1024.0 * 1024.0


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Recorder:
    """In-memory spans plus work counters, reduced per name at the end.

    A span's self time is its duration minus the time its direct child
    spans cover.  ``active`` switches recording on and off without
    unpatching, so a run can record set-up and timed rounds only.
    """

    def __init__(self):
        self.active = False
        self._stack: list[list] = []        # [name, start, child_total]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def close(self) -> None:
        name, start, child_total = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - child_total
        if self._stack:
            self._stack[-1][2] += duration

    def snapshot(self) -> dict[str, float]:
        """Every recorded figure under its per-layer metric name."""
        values: dict[str, float] = {}
        for name, count in self.calls.items():
            values[f"{name}.calls"] = float(count)
        for name, seconds in self.self_s.items():
            values[f"{name}.self_s"] = seconds
        values.update(self.counts)
        values.update(self.peaks)
        return values

    def enclosed_by(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def call(self, name: str, func, args, kwargs):
        if not self.active:
            return func(*args, **kwargs)
        self.calls[name] += 1
        self.open(name)
        try:
            return func(*args, **kwargs)
        finally:
            self.close()

    def iterate(self, name: str, gen):
        """Re-yield ``gen``, timing each resumption as a span of ``name``."""
        if not self.active:
            yield from gen
            return
        self.calls[name] += 1
        outermost = not self.enclosed_by(name)
        while True:
            self.open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.close()
            if outermost:
                self.counts[f"{name}.folds"] += 1
            yield item


def _wrap(recorder: Recorder, name: str, func):
    if name in GENERATORS:
        @functools.wraps(func)
        def generator_wrapper(*args, **kwargs):
            return recorder.iterate(name, func(*args, **kwargs))
        return generator_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return func(*args, **kwargs)
        return _record_call(recorder, name, func, args, kwargs)

    return wrapper


def _record_call(recorder: Recorder, name: str, func, args, kwargs):
    """One span of ``name`` plus the work counts that apply to it."""
    func_name = name.split(".", 1)[1]
    if func_name in IO_READS:
        recorder.counts["io.read.bytes"] += os.path.getsize(args[0])
    if name == "predict.predict_concentrations":
        recorder.counts[f"{name}.spectra"] += args[1].num_samples
    if name == "calibrate.fit_gls" and not tracemalloc.is_tracing():
        tracemalloc.start()
        try:
            return recorder.call(name, func, args, kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / BYTES_PER_MIB
            tracemalloc.stop()
            recorder.peaks[f"{name}.peak_mib"] = max(
                recorder.peaks[f"{name}.peak_mib"], peak)
    if name == "simulate.run_jackknife_study":
        replicates = args[2] if len(args) > 2 else kwargs["replicates"]
        recorder.counts[f"{name}.replicates"] += replicates
        before = _children_cpu_s()
        try:
            return recorder.call(name, func, args, kwargs)
        finally:
            recorder.counts[f"{name}.child_cpu_s"] += _children_cpu_s() - before
    result = recorder.call(name, func, args, kwargs)
    if func_name in IO_WRITES:
        path = args[IO_WRITE_PATH_ARG[func_name]]
        recorder.counts["io.write.bytes"] += os.path.getsize(path)
    return result


def install(recorder: Recorder) -> None:
    """Patch every traced specal function and strategy method."""
    from specal import cli, methods  # noqa: F401 - loads every module first

    modules = [module for module_name, module in sys.modules.items()
               if module_name == "specal" or module_name.startswith("specal.")]
    for layer, names in LAYERS.items():
        home = sys.modules[f"specal.{layer}"]
        for func_name in names:
            original = getattr(home, func_name)
            wrapped = _wrap(recorder, f"{layer}.{func_name}", original)
            for module in modules:
                if module.__dict__.get(func_name) is original:
                    setattr(module, func_name, wrapped)
    strategy_classes = [cls for cls in vars(methods).values()
                        if isinstance(cls, type)
                        and issubclass(cls, methods.Strategy)]
    for cls in strategy_classes:
        for method_name in STRATEGY_METHODS:
            if method_name in cls.__dict__:
                setattr(cls, method_name, _wrap(recorder, f"methods.{method_name}",
                                                cls.__dict__[method_name]))


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in a fixed order."""
    names = []
    for command in CLI_COMMANDS:
        names += [(f"cli.{command}.calls", "count"),
                  (f"cli.{command}.self_s", "s")]
    for layer, functions in LAYERS.items():
        for func_name in functions:
            names += [(f"{layer}.{func_name}.calls", "count"),
                      (f"{layer}.{func_name}.self_s", "s")]
        if layer == "io":
            names += [("io.read.bytes", "bytes"), ("io.write.bytes", "bytes")]
    for method_name in STRATEGY_METHODS:
        names += [(f"methods.{method_name}.calls", "count"),
                  (f"methods.{method_name}.self_s", "s")]
    names += [
        ("calibrate.loo_coefficients.folds", "count"),
        ("calibrate.gls_loo_coefficients.folds", "count"),
        ("calibrate.fit_gls.peak_mib", "MiB"),
        ("predict.predict_concentrations.spectra", "count"),
        ("methods.jackknife_fits.folds", "count"),
        ("simulate.run_jackknife_study.replicates", "count"),
        ("simulate.run_jackknife_study.child_cpu_s", "s"),
    ]
    return names
