"""Shared measurement plumbing: statistics, host calibration, memory, records.

Everything here is independent of the program under test except
:func:`fresh_graph`, which rebuilds a :class:`~repro.kg.graph.KnowledgeGraph`
from an existing one so set-up work that the graph caches (the filter
index) is paid again on every set-up repetition.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Checkout root (the benchmark lives one directory below it).
ROOT = Path(__file__).resolve().parent.parent

#: Where runs write their records, trace spans and scratch stores.
OUT_DIR = ROOT / ".perfbench_out"

#: Embedding size of every ComplEx model the benchmark builds.
DIM = 24

#: Set-up repetitions per measured run; ``setup_s`` is their median.
SETUPS = 6

#: Square matrix size and measuring time of the GEMM calibration.
GEMM_SIZE = 384
GEMM_SECONDS = 0.3

#: Iterations of the Python-loop calibration.
LOOP_ITERATIONS = 200_000


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(label, value)``; below 20 samples no percentile qualifies
    and the maximum is returned as ``("max", ...)``.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            index = min(n - 1, int(np.ceil(pct / 100.0 * n)) - 1)
            return f"p{pct:g}", float(ordered[index])
    return "max", float(ordered[-1])


def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(np.ceil(pct / 100.0 * len(ordered))) - 1))
    return float(ordered[index])


@dataclass
class Outcome:
    """Everything one workload run reports.

    ``metrics`` maps a metric name to ``(value, unit)``; ``samples`` maps
    it to the number of measurements behind the value.  ``report`` holds
    figures that belong to this workload alone, printed for a reader but
    not bound-checked (quality figures, tails, rates).
    ``series`` keeps raw samples for the run record.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    report: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    series: dict[str, list[float]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = (float(value), unit)
        self.samples[name] = samples

    def note(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.report[name] = (float(value), unit, samples)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (``VmHWM``) of one live process, in MiB."""
    path = f"/proc/{pid or os.getpid()}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident set.

    Called once the input graph is generated, so the generator's own
    peak is not charged to the program.
    """
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


# ----------------------------------------------------------------------
# Host calibration and environment stamp
# ----------------------------------------------------------------------
def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the host so far, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def gemm_gflops() -> float:
    """Float64 numpy GEMM throughput on this host, same job as the run."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((GEMM_SIZE, GEMM_SIZE))
    b = rng.standard_normal((GEMM_SIZE, GEMM_SIZE))
    a @ b  # warm the BLAS thread pool
    rates = []
    deadline = time.perf_counter() + GEMM_SECONDS
    while time.perf_counter() < deadline or len(rates) < 5:
        start = time.perf_counter()
        a @ b
        rates.append(2.0 * GEMM_SIZE**3 / (time.perf_counter() - start) / 1e9)
    return median(rates)


def loop_ns_per_op() -> float:
    """Nanoseconds per iteration of a plain Python accumulate loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(LOOP_ITERATIONS):
            total += i
        best = min(best, time.perf_counter() - start)
    return best / LOOP_ITERATIONS * 1e9


def _blas_info() -> tuple[str, int | None]:
    """BLAS vendor and thread count as found (nothing is set)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    # Wheels bundle their BLAS beside the package in ``numpy.libs``.
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*blas*.so*"))):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return vendor, int(function())
    return vendor, None


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(workload: str, seed: int) -> dict:
    vendor, threads = _blas_info()
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas": vendor,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "host.gemm_gflops": round(gemm_gflops(), 3),
        "host.loop_ns_per_op": round(loop_ns_per_op(), 3),
    }


# ----------------------------------------------------------------------
# The program under test
# ----------------------------------------------------------------------
class Setups:
    """Repeated, timed set-ups of one workload; ``setup_s`` is their median.

    The host's speed drifts over seconds, so the set-ups are not done in
    one stretch: :meth:`before` runs the first half, and the workload
    measures with the last of them; :meth:`after` runs the rest once the
    measured work (and its peak memory) is done.  Before each set-up the
    previous one is released and dropped and the heap collected, so every
    set-up starts from the same heap and only one is alive at a time.
    """

    def __init__(self, count: int, build, release=None):
        self.count = count
        self.build = build
        self.release = release
        self.times: list[float] = []
        self.current = None
        self.began = time.perf_counter()

    def _again(self) -> None:
        self._release()
        gc.collect()
        start = time.perf_counter()
        self.current = self.build()
        self.times.append(time.perf_counter() - start)

    def _release(self) -> None:
        if self.current is not None and self.release is not None:
            self.release(self.current)
        self.current = None

    def before(self):
        """The first half of the set-ups; returns the last one's result."""
        for _ in range((self.count + 1) // 2):
            self._again()
        return self.current

    def deadline(self, seconds: float) -> float:
        """When measured work must end for the run to last ``seconds``."""
        return self.began + seconds - (self.count - len(self.times)) * median(self.times)

    def after(self) -> list[float]:
        """The remaining set-ups, each released; returns every set-up time.

        The caller drops its own references to the current set-up first.
        """
        while len(self.times) < self.count:
            self._again()
        self._release()
        return self.times


def stop_helper_processes() -> None:
    """Stop and reap every helper process the program started in this process.

    The engine's worker pools are shut down (joining their workers and
    unlinking their shared memory) and then the multiprocessing resource
    tracker, which creating shared memory starts, is stopped and waited
    for; left alone it outlives this process by a moment as an orphan.
    """
    from multiprocessing import resource_tracker

    engine = sys.modules.get("repro.engine")
    if engine is not None:
        engine.shutdown_engine_pools()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def fresh_graph(graph):
    """A new graph object over the same splits, with no cached indexes."""
    from repro.kg.graph import KnowledgeGraph

    return KnowledgeGraph(
        entities=graph.entities,
        relations=graph.relations,
        train=graph.train,
        valid=graph.valid,
        test=graph.test,
        name=graph.name,
    )


def load_dataset(name: str):
    """A zoo dataset exactly as its config generates it.

    The benchmark seed does not reach the generator: a different
    generator seed changes the test split's size and its (relation,
    side) group structure, which moved evaluation cost by up to 25 %
    between seeds — more than any bound may be.  The seed drives the
    model, training, pool draws, checked queries and traffic instead.
    """
    from repro.datasets import zoo

    return zoo.load(name, use_cache=False)


def write_record(name: str, record: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return path
