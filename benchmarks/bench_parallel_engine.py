"""Parallel evaluation engine: speed-up floors and exactness guarantee.

Three claims, all asserted:

1. **Exactness** — ``workers=4`` produces bitwise-identical per-query
   ranks (and therefore identical metrics) to the serial path, on the
   full protocol and the sampled estimator alike, over both transports.
   Parallelism is purely an execution knob.
2. **Concurrency** — with a scoring backend whose per-batch latency
   dominates (the regime the engine exists for: million-entity score
   matrices, models served from an accelerator or a remote process), 4
   workers complete the same chunk schedule >= 2x faster than 1.  The
   latency-bound scorer pins the per-batch cost to a fixed,
   hardware-independent floor, so the asserted ratio measures the
   engine's chunk fan-out rather than how many idle cores this
   particular machine happens to have.
3. **CPU-bound transport win** — ``cpu_bound_speedup`` is the ratio of
   the legacy pickle transport's 4-worker wall time to the shared-memory
   transport's steady-state 4-worker wall time on pure-numpy scoring,
   both under the **spawn** start method (the only one every platform
   has, and the one where the legacy transport's serialisation cost is
   fully visible: spawn re-pickles the whole state at every pool start,
   while the shm transport publishes it once and reuses a persistent
   pool).  Floor: >= 2x.  The same ratio under fork — where the legacy
   path hides most pickling behind copy-on-write inheritance and shm's
   win shrinks to per-run pool churn — is reported
   (``cpu_bound_speedup_fork``) but not asserted.

   Both transports cap every worker at the same BLAS thread budget,
   ``max(1, usable_cores // workers)``, so the two ratios compare like
   with like.

   Measured honestly: the committed numbers come from a 2-core host
   (``nproc`` = 2), where serial scoring already uses both cores through
   multi-threaded BLAS.  Parallel-vs-serial scaling of genuinely
   CPU-bound work is therefore reported (``cpu_bound_parallel_vs_serial``)
   but not asserted — it is a fact about the host, not the engine.  What
   the engine *can* win on any host is the transport overhead, and that
   is what the floor pins.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.bench import LatencyBoundScorer, render_table
from repro.core.ranking import evaluate_full
from repro.core.estimators import evaluate_sampled
from repro.core.protocol import EvaluationProtocol
from repro.datasets import SyntheticConfig, generate
from repro.engine import shutdown_engine_pools
from repro.models import build_model
from repro.obs import get_registry
from repro.obs.top import scrape, sum_family

#: Acceptance floors, both at 4 workers: latency-bound fan-out vs 1
#: worker, and shm transport vs legacy pickle transport on CPU-bound work.
MIN_SPEEDUP = 2.0

WORKERS = 4
CHUNK_SIZE = 64

#: Emulated per-batch scoring latency (seconds).  20 ms is the order of a
#: single large-graph score-matrix slab or one RPC to a scoring service.
BATCH_LATENCY = 0.02


def _large_synthetic():
    """A synthetic large graph: ~3.8k entities, ~1.8k test queries."""
    config = SyntheticConfig(
        num_entities=4000,
        num_relations=24,
        num_types=8,
        num_triples=24000,
        num_communities=3,
        seed=7,
        name="engine-bench",
    )
    return generate(config)


def _timed_full(model, graph, **kwargs):
    """One ``evaluate_full`` plus its wall time (the run's own clock)."""
    start = time.perf_counter()
    result = evaluate_full(model, graph, chunk_size=CHUNK_SIZE, **kwargs)
    return result, time.perf_counter() - start


def test_parallel_engine_speedup(emit, emit_json):
    dataset = _large_synthetic()
    graph = dataset.graph
    model = build_model(
        "distmult", graph.num_entities, graph.num_relations, dim=32, seed=0
    )
    graph.filter_index  # noqa: B018 — warm once, outside every timed region

    # -- Exactness: serial, shm and pickle transports agree bit for bit. -
    serial, serial_seconds = _timed_full(model, graph, workers=1)
    warmup, _ = _timed_full(
        model, graph, workers=WORKERS, transport="shm", start_method="spawn"
    )
    assert warmup.ranks == serial.ranks  # cold shm run (pays pool + publish)
    shm, shm_seconds = _timed_full(
        model, graph, workers=WORKERS, transport="shm", start_method="spawn"
    )
    legacy, legacy_seconds = _timed_full(
        model, graph, workers=WORKERS, transport="pickle", start_method="spawn"
    )
    assert shm.ranks == serial.ranks
    assert shm.metrics == serial.metrics
    assert legacy.ranks == serial.ranks
    cpu_transport_speedup = legacy_seconds / max(shm_seconds, 1e-9)
    cpu_parallel_vs_serial = serial_seconds / max(shm_seconds, 1e-9)

    # The same comparison under fork, where copy-on-write inheritance
    # hides most of the legacy transport's pickling (reported, not gated).
    fork_warmup, _ = _timed_full(model, graph, workers=WORKERS, transport="shm")
    _, shm_fork_seconds = _timed_full(model, graph, workers=WORKERS, transport="shm")
    fork_legacy, legacy_fork_seconds = _timed_full(
        model, graph, workers=WORKERS, transport="pickle"
    )
    assert fork_warmup.ranks == serial.ranks
    assert fork_legacy.ranks == serial.ranks
    cpu_fork_speedup = legacy_fork_seconds / max(shm_fork_seconds, 1e-9)

    # -- Concurrency: latency-bound scorer, the engine's target regime. -
    throttled = LatencyBoundScorer(model, delay=BATCH_LATENCY)
    slow_serial, slow_serial_seconds = _timed_full(throttled, graph, workers=1)
    slow_parallel, slow_parallel_seconds = _timed_full(
        throttled, graph, workers=WORKERS
    )
    assert slow_parallel.ranks == slow_serial.ranks
    assert slow_serial.ranks == serial.ranks  # the wrapper changes nothing
    latency_speedup = slow_serial_seconds / max(slow_parallel_seconds, 1e-9)

    rows = [
        {
            "Regime": "latency-bound (20 ms/batch), 4 workers vs 1",
            "Baseline (s)": round(slow_serial_seconds, 2),
            "Engine (s)": round(slow_parallel_seconds, 2),
            "Speed-up": round(latency_speedup, 2),
            "Ranks equal": "yes",
        },
        {
            "Regime": "CPU-bound numpy, shm vs pickle transport (spawn)",
            "Baseline (s)": round(legacy_seconds, 2),
            "Engine (s)": round(shm_seconds, 2),
            "Speed-up": round(cpu_transport_speedup, 2),
            "Ranks equal": "yes",
        },
        {
            "Regime": "CPU-bound numpy, shm vs pickle transport (fork)",
            "Baseline (s)": round(legacy_fork_seconds, 2),
            "Engine (s)": round(shm_fork_seconds, 2),
            "Speed-up": round(cpu_fork_speedup, 2),
            "Ranks equal": "yes",
        },
        {
            "Regime": "CPU-bound numpy, 4 shm workers vs serial (informational)",
            "Baseline (s)": round(serial_seconds, 2),
            "Engine (s)": round(shm_seconds, 2),
            "Speed-up": round(cpu_parallel_vs_serial, 2),
            "Ranks equal": "yes",
        },
    ]
    emit(
        "parallel_engine",
        render_table(
            rows,
            title=(
                f"Parallel engine, full ranking of {graph.name} "
                f"({graph.num_entities} entities, {2 * len(graph.test)} queries)"
            ),
        ),
    )
    emit_json(
        "parallel_engine",
        {
            "bench": "bench_parallel_engine",
            "workers": WORKERS,
            "latency_bound_speedup": latency_speedup,
            "cpu_bound_speedup": cpu_transport_speedup,
            "cpu_bound_speedup_fork": cpu_fork_speedup,
            "cpu_bound_parallel_vs_serial": cpu_parallel_vs_serial,
            "min_speedup_asserted": MIN_SPEEDUP,
            "ranks_equal": True,
        },
        config={
            "workers": WORKERS,
            "chunk_size": CHUNK_SIZE,
            "batch_latency": BATCH_LATENCY,
            "model": "distmult",
            "dim": 32,
            "cpu_bound_speedup_definition": (
                "pickle-transport seconds / shm-transport steady-state "
                "seconds, both at 4 workers under the spawn start method"
            ),
        },
    )
    assert latency_speedup >= MIN_SPEEDUP
    assert cpu_transport_speedup >= MIN_SPEEDUP
    shutdown_engine_pools()  # leave no pool (or segment) behind for later benches


#: Telemetry acceptance: a traced steady-state run may cost at most 5%
#: over the untraced run (plus a small absolute slack for timer noise),
#: and the workers' merged busy seconds must account for >= 80% of the
#: run's wall time — proof the spans measure where the time really goes.
TELEMETRY_OVERHEAD_FACTOR = 1.05
TELEMETRY_OVERHEAD_SLACK = 0.02
MIN_BUSY_ACCOUNTING = 0.8


def _median(values):
    return sorted(values)[len(values) // 2]


def test_worker_telemetry_accounting_and_overhead(emit, emit_json):
    """Worker telemetry: complete accounting, negligible cost, exact ranks.

    Two gated claims on the shm transport's per-chunk telemetry:

    1. **Accounting** — over one steady-state CPU-bound run, the
       ``repro_engine_worker_busy_seconds_total`` deltas merged from the
       workers cover >= 80% of the run's wall time (workers overlap, so
       the ratio can legitimately exceed 1 on multi-core hosts).
    2. **Overhead** — the median of 3 telemetry-on runs costs <= 5% over
       the median of 3 interleaved telemetry-off runs (the
       ``REPRO_ENGINE_TELEMETRY=0`` kill-switch path), and every run's
       ranks are bitwise-identical either way.
    """
    dataset = _large_synthetic()
    graph = dataset.graph
    model = build_model(
        "distmult", graph.num_entities, graph.num_relations, dim=32, seed=0
    )
    graph.filter_index  # noqa: B018 — warm once, outside every timed region
    registry = get_registry()

    def _busy_total() -> float:
        return sum_family(
            scrape(registry), "repro_engine_worker_busy_seconds_total"
        )

    def _timed(telemetry: str):
        os.environ["REPRO_ENGINE_TELEMETRY"] = telemetry
        try:
            return _timed_full(model, graph, workers=WORKERS, transport="shm")
        finally:
            del os.environ["REPRO_ENGINE_TELEMETRY"]

    serial, _ = _timed_full(model, graph, workers=1)
    warmup, _ = _timed("1")  # pool start + state publish paid here
    assert warmup.ranks == serial.ranks

    # -- Accounting: merged busy seconds vs one steady-state run's wall. -
    busy_before = _busy_total()
    accounted_run, accounting_wall = _timed("1")
    busy_delta = _busy_total() - busy_before
    accounting = busy_delta / max(accounting_wall, 1e-9)
    assert accounted_run.ranks == serial.ranks

    # -- Overhead: interleaved on/off runs, median of 3 each. ------------
    baseline_seconds: list[float] = []
    traced_seconds: list[float] = []
    for _ in range(3):
        off_run, off_wall = _timed("0")
        on_run, on_wall = _timed("1")
        assert off_run.ranks == serial.ranks
        assert on_run.ranks == serial.ranks
        baseline_seconds.append(off_wall)
        traced_seconds.append(on_wall)
    baseline = _median(baseline_seconds)
    traced = _median(traced_seconds)
    overhead = traced / max(baseline, 1e-9)

    rows = [
        {
            "Claim": "busy-seconds accounting of one run's wall time",
            "Measured": f"{accounting:.2f}x",
            "Floor/ceiling": f">= {MIN_BUSY_ACCOUNTING}x",
            "Ranks equal": "yes",
        },
        {
            "Claim": "telemetry-on vs telemetry-off wall time (median of 3)",
            "Measured": f"{overhead:.3f}x",
            "Floor/ceiling": f"<= {TELEMETRY_OVERHEAD_FACTOR}x + "
            f"{TELEMETRY_OVERHEAD_SLACK}s",
            "Ranks equal": "yes",
        },
    ]
    emit(
        "worker_telemetry",
        render_table(
            rows,
            title=(
                f"Worker telemetry, full ranking of {graph.name} at "
                f"{WORKERS} shm workers"
            ),
        ),
    )
    emit_json(
        "worker_telemetry",
        {
            "bench": "bench_parallel_engine::worker_telemetry",
            "workers": WORKERS,
            "busy_accounting_ratio": accounting,
            "busy_seconds": busy_delta,
            "accounting_wall_seconds": accounting_wall,
            "telemetry_on_seconds": traced,
            "telemetry_off_seconds": baseline,
            "telemetry_overhead_ratio": overhead,
            "min_busy_accounting": MIN_BUSY_ACCOUNTING,
            "max_overhead_factor": TELEMETRY_OVERHEAD_FACTOR,
            "ranks_equal": True,
        },
        config={
            "workers": WORKERS,
            "chunk_size": CHUNK_SIZE,
            "model": "distmult",
            "dim": 32,
            "runs_per_mode": 3,
            "overhead_definition": (
                "median telemetry-on seconds / median telemetry-off "
                "seconds, interleaved steady-state shm runs"
            ),
        },
    )
    assert accounting >= MIN_BUSY_ACCOUNTING
    assert traced <= baseline * TELEMETRY_OVERHEAD_FACTOR + TELEMETRY_OVERHEAD_SLACK
    shutdown_engine_pools()


def test_parallel_sampled_matches_serial():
    """The sampled estimator is also exact under parallel execution."""
    dataset = _large_synthetic()
    graph = dataset.graph
    model = build_model(
        "complex", graph.num_entities, graph.num_relations, dim=16, seed=1
    )
    protocol = EvaluationProtocol(
        graph, strategy="static", sample_fraction=0.05, types=dataset.types, seed=3
    )
    protocol.prepare()
    assert protocol.pools is not None
    serial = evaluate_sampled(model, graph, protocol.pools, workers=1)
    parallel = evaluate_sampled(
        model, graph, protocol.pools, workers=WORKERS, chunk_size=CHUNK_SIZE
    )
    assert parallel.ranks == serial.ranks
    # Different chunk sizes cannot change a rank either: chunks partition
    # the query axis and each query's rank is computed row-locally.
    rechunked = evaluate_sampled(model, graph, protocol.pools, chunk_size=17)
    assert rechunked.ranks == serial.ranks
    assert np.isfinite(serial.metrics.mrr)
    shutdown_engine_pools()
