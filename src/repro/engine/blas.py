"""Per-process BLAS thread budgets for engine workers.

Every pool worker runs its own OpenBLAS, and each OpenBLAS starts as
many threads as the host has cores, so ``N`` workers on ``C`` cores
would run ``N * C`` BLAS threads.  Workers therefore cap themselves at
:func:`blas_budget` threads before scoring anything.  OpenBLAS splits a
GEMM across threads by output blocks, never along the summed axis, so
the thread count cannot change a score or a rank.

numpy and scipy each ship their own OpenBLAS build (with symbol
suffixes such as ``64_``), and both can be loaded at once: every loaded
one is found through ``/proc/self/maps`` and capped.  Without ``/proc``
or without OpenBLAS every function here is a no-op.
"""

from __future__ import annotations

import ctypes
import os

#: The memory map listing the shared objects loaded in this process.
MAPS = "/proc/self/maps"

_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _controls() -> dict[str, tuple]:
    """``{library path: (get, set)}`` for every loaded OpenBLAS."""
    try:
        with open(MAPS, encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return {}
    controls = {}
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(library, get_name) and hasattr(library, set_name):
                get, set_ = getattr(library, get_name), getattr(library, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls[path] = (get, set_)
                break
    return controls


def blas_threads() -> dict[str, int]:
    """``{library path: threads}`` for every loaded OpenBLAS."""
    return {path: get() for path, (get, _) in _controls().items()}


def limit_blas_threads(threads: int) -> dict[str, int]:
    """Cap every loaded OpenBLAS at ``threads``; returns the counts after.

    A library already below the cap (``OPENBLAS_NUM_THREADS=1``) keeps
    its own count: the cap never raises one.
    """
    for get, set_ in _controls().values():
        if get() > threads:
            set_(threads)
    return blas_threads()


def blas_budget(workers: int) -> int:
    """BLAS threads per worker: the usable cores shared out, at least 1."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — no affinity API (macOS)
        cores = os.cpu_count() or 1
    return max(1, cores // workers)
