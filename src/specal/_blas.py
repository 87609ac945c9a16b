"""One BLAS thread per process for every OpenBLAS the process has loaded.

numpy and scipy each bundle an OpenBLAS with a pool as wide as the
machine; on specal's many small solves the pools only contend for cores,
and a threaded BLAS may sum in another order on another core count.  The
libraries are found in ``/proc/self/maps`` and driven through ctypes.
With none found, or no known thread setter (MKL, Accelerate), every
function here does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os

_SYMBOLS = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
            for prefix in ("openblas", "scipy_openblas") for suffix in ("", "64_")]


def _thread_functions(path: str):
    """(getter, setter) exported by the library at ``path``, or None."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for get_name, set_name in _SYMBOLS:
        getter = getattr(lib, get_name, None)
        setter = getattr(lib, set_name, None)
        if getter is not None and setter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return getter, setter
    return None


@functools.cache
def _pools() -> tuple[tuple, ...]:
    """(getter, setter) of each loaded OpenBLAS, looked up once.  Importing
    specal imports numpy and scipy.linalg, so both are mapped by then."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle}
    except OSError:
        return ()
    found = (_thread_functions(path) for path in sorted(paths)
             if "openblas" in (name := os.path.basename(path)) and ".so" in name)
    return tuple(pool for pool in found if pool is not None)


def thread_counts() -> tuple[int, ...]:
    """Current thread count of each loaded OpenBLAS pool (empty if none)."""
    return tuple(get() for get, _ in _pools())


def set_thread_counts(counts) -> None:
    """Set each pool, in :func:`thread_counts` order, to its count."""
    for (_, set_), count in zip(_pools(), counts):
        set_(count)


def pin_one_thread() -> None:
    """Run every pool on one thread; also a worker-process initializer."""
    set_thread_counts([1] * len(_pools()))


@contextlib.contextmanager
def one_thread():
    """Every pool on one thread inside the block; the caller's counts after."""
    saved = thread_counts()
    pin_one_thread()
    try:
        yield
    finally:
        set_thread_counts(saved)
