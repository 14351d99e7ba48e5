"""Persistent shared-memory worker pools for the evaluation engine.

A :class:`PersistentWorkerPool` is the long-lived half of the engine's
``transport="shm"`` path: ``N`` daemon worker processes that stay alive
across ``evaluate_full`` / ``evaluate_sampled`` calls (and across serve
requests), each looping on its own task queue.  A pool executes *runs*:

1. :meth:`ensure_state` publishes the evaluation state into shared
   memory (:func:`repro.engine.shm.publish_state`) — skipped entirely
   when the previous run used content-identical state, which is what
   makes repeated evaluation of the same model (training loops, the
   serve path, benchmarks) pay the publish exactly once;
2. chunk tasks are dispatched round-robin; each worker scores its chunks
   with the same :func:`~repro.engine.worker.score_chunk` kernel as the
   serial path and writes the ranks **directly into the shared result
   buffer** — only a ``("done", index, scored, telemetry)`` tuple rides
   the result queue;
3. the parent slices the buffer back into schedule order and merges the
   workers' shipped telemetry deltas into per-worker-labelled
   ``repro_engine_worker_*`` metric families and ``engine.worker.*``
   trace spans (:func:`resolve_telemetry` / ``$REPRO_ENGINE_TELEMETRY``
   turn the shipping off).

Fault model: a worker that dies mid-run (OOM-kill, segfault, ``os._exit``)
is detected by liveness polling on the result-queue wait and surfaces as
:class:`EngineWorkerError` — never a hang; an optional per-run ``timeout``
bounds the wait outright.  Any failed or interrupted run marks the pool
*broken*: its processes are terminated, its shared segments unlinked, and
the module-level registry (:func:`get_engine_pool`) transparently builds
a fresh pool on next use.  An ``atexit`` hook shuts every registered pool
down, so no shm segment or worker process outlives the interpreter.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue as queue_module
import threading
import time
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.engine.blas import blas_budget
from repro.engine.chunking import group_offsets
from repro.engine.shm import PublishedState, publish_state, state_fingerprint
from repro.obs import get_registry, get_tracer
from repro.obs.context import current_trace_id
from repro.obs.log import log_event

if TYPE_CHECKING:
    from repro.engine.chunking import ChunkTask
    from repro.engine.worker import EvaluationState

#: Transports the engine can execute a parallel run through.
TRANSPORTS: tuple[str, ...] = ("shm", "pickle")

#: Seconds between liveness checks while waiting on worker results.
POLL_INTERVAL = 0.1

#: Seconds allowed for a worker to attach a freshly published state.
STATE_ATTACH_TIMEOUT = 120.0

#: Help text for the merged per-worker counter families (one labelled
#: series per worker, merged parent-side from shipped deltas).
WORKER_COUNTER_HELP: dict[str, str] = {
    "repro_engine_worker_chunks_total": "Chunks scored, per pool worker",
    "repro_engine_worker_queries_total": "Queries ranked, per pool worker",
    "repro_engine_worker_entities_total": (
        "Candidate entities scored, per pool worker"
    ),
    "repro_engine_worker_queue_wait_seconds_total": (
        "Seconds chunks waited on the task queue, per pool worker"
    ),
    "repro_engine_worker_attach_seconds_total": (
        "Seconds spent attaching shared states, per pool worker"
    ),
    "repro_engine_worker_score_seconds_total": (
        "Seconds spent scoring chunks, per pool worker"
    ),
    "repro_engine_worker_write_seconds_total": (
        "Seconds spent writing ranks to the shared buffer, per pool worker"
    ),
    "repro_engine_worker_busy_seconds_total": (
        "Seconds spent attached + scoring + writing, per pool worker"
    ),
}

#: Worker stage counters folded back into the parent trace as spans.
_STAGE_SPANS: dict[str, str] = {
    "repro_engine_worker_queue_wait_seconds_total": "engine.worker.queue_wait",
    "repro_engine_worker_score_seconds_total": "engine.worker.score",
    "repro_engine_worker_write_seconds_total": "engine.worker.write",
    "repro_engine_worker_attach_seconds_total": "engine.worker.attach",
}


def resolve_telemetry(telemetry: bool | None = None) -> bool:
    """``telemetry`` argument > ``$REPRO_ENGINE_TELEMETRY`` > on.

    Worker-side telemetry is on by default (its cost is a handful of
    clock reads per chunk, asserted ≤5% end-to-end by
    ``bench_parallel_engine``); set ``REPRO_ENGINE_TELEMETRY=0`` to get
    the bare score-and-write worker loop.
    """
    if telemetry is not None:
        return telemetry
    raw = (os.environ.get("REPRO_ENGINE_TELEMETRY") or "").strip().lower()
    return raw not in ("0", "false", "off", "no")


class EngineWorkerError(RuntimeError):
    """A worker process died, failed, or a run exceeded its timeout."""


def resolve_transport(transport: str | None) -> str:
    """``transport`` argument > ``$REPRO_ENGINE_TRANSPORT`` > ``"shm"``."""
    resolved = transport or os.environ.get("REPRO_ENGINE_TRANSPORT") or "shm"
    if resolved not in TRANSPORTS:
        raise ValueError(
            f"unknown engine transport {resolved!r}; expected one of {TRANSPORTS}"
        )
    return resolved


def resolve_start_method(start_method: str | None) -> str:
    """``start_method`` argument > ``$REPRO_ENGINE_START_METHOD`` > platform default."""
    resolved = (
        start_method
        or os.environ.get("REPRO_ENGINE_START_METHOD")
        or multiprocessing.get_start_method()
    )
    if resolved not in multiprocessing.get_all_start_methods():
        raise ValueError(
            f"start method {resolved!r} unavailable on this platform; "
            f"have {multiprocessing.get_all_start_methods()}"
        )
    return resolved


class PersistentWorkerPool:
    """``workers`` long-lived scoring processes plus their queues.

    Thread-safe: concurrent callers (e.g. serve request threads) serialise
    on an internal lock, so one run's result buffer is never overwritten
    while another caller is still slicing it.
    """

    def __init__(self, workers: int, start_method: str | None = None):
        if workers < 1:
            raise ValueError(f"pool needs at least 1 worker, got {workers}")
        # Imported here: worker_main lives beside score_chunk and importing
        # it at module top would cycle through repro.engine.__init__.
        from repro.engine.worker import worker_main

        self.workers = workers
        self.start_method = resolve_start_method(start_method)
        #: BLAS threads each worker caps itself at before scoring.
        self.blas_threads_per_worker = blas_budget(workers)
        #: Each worker's effective BLAS thread count, from its last
        #: ``("ready", ...)`` ack (``None`` until then, or without OpenBLAS).
        self.worker_blas_threads: list[int | None] = [None] * workers
        self.started_at = time.time()
        self.runs_completed = 0
        self.states_published = 0
        self.broken = False
        self.closed = False
        self._lock = threading.Lock()
        self._published: PublishedState | None = None
        context = multiprocessing.get_context(self.start_method)
        self._task_queues = [context.Queue() for _ in range(workers)]
        self._result_queue = context.Queue()
        self._processes = [
            context.Process(
                target=worker_main,
                args=(
                    worker_id,
                    self._task_queues[worker_id],
                    self._result_queue,
                    self.blas_threads_per_worker,
                ),
                daemon=True,
                name=f"repro-engine-{worker_id}",
            )
            for worker_id in range(workers)
        ]
        for process in self._processes:
            process.start()
        self._workers_gauge().set(workers, pool=self.label)
        get_registry().counter(
            "repro_engine_pool_starts_total", "Engine worker pools started", labels=("pool",)
        ).inc(pool=self.label)
        log_event(
            "engine.pool.start",
            pool=self.label,
            workers=workers,
            start_method=self.start_method,
            blas_threads_per_worker=self.blas_threads_per_worker,
            pids=self.worker_pids(),
        )

    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        return f"{self.workers}-{self.start_method}"

    @staticmethod
    def _workers_gauge():
        return get_registry().gauge(
            "repro_engine_pool_workers",
            "Live worker processes per persistent engine pool",
            labels=("pool",),
        )

    def alive(self) -> bool:
        return (
            not self.closed
            and not self.broken
            and all(process.is_alive() for process in self._processes)
        )

    def worker_pids(self) -> list[int]:
        return [process.pid for process in self._processes if process.pid is not None]

    # ------------------------------------------------------------------
    # State publication
    # ------------------------------------------------------------------
    def ensure_state(self, state: "EvaluationState") -> PublishedState:
        """Publish ``state`` unless the live published state already matches.

        Matching is content-aware (model parameter digest, filter index /
        pools identity, split, sides); wrapper models that travel by pickle are
        never considered reusable because their bytes cannot be cheaply
        fingerprinted.
        """
        fingerprint = state_fingerprint(state)
        current = self._published
        reusable = (
            current is not None
            and current.fingerprint == fingerprint
            and current.manifest.model_pickle is None
        )
        if reusable:
            return current  # type: ignore[return-value]
        published = publish_state(state)
        attach_seconds: dict[int, float] = {}
        try:
            for task_queue in self._task_queues:
                task_queue.put(("state", published.manifest))
            deadline = time.monotonic() + STATE_ATTACH_TIMEOUT
            while len(attach_seconds) < self.workers:
                message = self._next_message(deadline, waiting_for="state attach")
                if message[0] == "ready":
                    attach_seconds[message[1]] = float(message[3])
                    self.worker_blas_threads[message[1]] = message[4]
                elif message[0] == "error":
                    raise EngineWorkerError(
                        f"worker failed to attach shared state:\n{message[2]}"
                    )
        except BaseException:
            published.close()
            raise
        if current is not None:
            current.close()
        self._published = published
        self.states_published += 1
        registry = get_registry()
        registry.counter(
            "repro_engine_state_publish_total",
            "Evaluation states published into shared memory",
            labels=("pool",),
        ).inc(pool=self.label)
        # Attach time is measured worker-side and shipped on the "ready"
        # ack — the only stage that happens outside a chunk reply.
        for worker_id, seconds in attach_seconds.items():
            registry.merge_counters(
                {
                    "repro_engine_worker_attach_seconds_total": seconds,
                    "repro_engine_worker_busy_seconds_total": seconds,
                },
                labels={"pool": self.label, "worker": str(worker_id)},
                help_texts=WORKER_COUNTER_HELP,
            )
        log_event(
            "engine.state.publish",
            pool=self.label,
            state_id=published.manifest.state_id,
            shm_bytes=published.arena.nbytes,
            attach_seconds=round(sum(attach_seconds.values()), 6),
        )
        return published

    # ------------------------------------------------------------------
    # Run execution
    # ------------------------------------------------------------------
    def run_tasks(
        self,
        state: "EvaluationState",
        tasks: Sequence["ChunkTask"],
        timeout: float | None = None,
        telemetry: bool | None = None,
    ) -> list[tuple[np.ndarray, int]]:
        """Score ``tasks`` against ``state``; results in schedule order.

        Returns one ``(ranks, entities_scored)`` pair per task.  Any
        failure — worker crash, worker-side exception, timeout, or an
        interrupt of the caller — marks the pool broken and shuts it
        down before re-raising, so shared segments never leak.

        With telemetry on (:func:`resolve_telemetry` — the default) each
        task carries its enqueue timestamp plus the caller's trace id,
        and each reply carries the worker's counter delta; the deltas
        are merged into the process registry as per-worker-labelled
        ``repro_engine_worker_*`` families and folded into the active
        trace as ``engine.worker.*`` spans (plus the workers' own
        timestamped events when the tracer records timelines).
        """
        with self._lock:
            if self.closed or self.broken:
                raise EngineWorkerError("worker pool is no longer usable")
            telemetry_on = resolve_telemetry(telemetry)
            tracer = get_tracer()
            timeline = telemetry_on and tracer.enabled and tracer.timeline
            trace_id = current_trace_id() if timeline else None
            deltas: list[tuple[int, dict]] = []
            try:
                published = self.ensure_state(state)
                manifest = published.manifest
                group_starts = group_offsets(
                    [length for _, _, length in manifest.groups]
                )
                for index, task in enumerate(tasks):
                    offset = int(group_starts[task.group] + task.start)
                    meta = (
                        {
                            "enqueue_ts": time.time(),
                            "timeline": timeline,
                            "trace_id": trace_id,
                        }
                        if telemetry_on
                        else None
                    )
                    self._task_queues[index % self.workers].put(
                        ("task", manifest.state_id, index, task, offset, meta)
                    )
                deadline = time.monotonic() + timeout if timeout is not None else None
                scored: dict[int, int] = {}
                while len(scored) < len(tasks):
                    message = self._next_message(deadline, waiting_for="chunk results")
                    if message[0] == "done":
                        scored[message[1]] = message[2]
                        if message[3] is not None:
                            deltas.append((message[1] % self.workers, message[3]))
                    elif message[0] == "error":
                        raise EngineWorkerError(
                            f"engine worker failed on chunk {message[1]}:\n{message[2]}"
                        )
                buffer = published.result_view
                results: list[tuple[np.ndarray, int]] = []
                for index, task in enumerate(tasks):
                    offset = int(group_starts[task.group] + task.start)
                    ranks = buffer[offset : offset + task.num_queries].copy()
                    results.append((ranks, scored[index]))
            except BaseException:
                self._mark_broken()
                raise
            self.runs_completed += 1
            registry = get_registry()
            registry.counter(
                "repro_engine_pool_runs_total",
                "Evaluation runs executed by persistent engine pools",
                labels=("pool",),
            ).inc(pool=self.label)
            registry.gauge(
                "repro_engine_pool_uptime_seconds",
                "Age of each persistent engine pool at its last run",
                labels=("pool",),
            ).set(round(time.time() - self.started_at, 3), pool=self.label)
            if deltas:
                self._merge_worker_telemetry(deltas, registry, tracer)
            return results

    def _merge_worker_telemetry(self, deltas, registry, tracer) -> None:
        """Fold shipped worker deltas into the parent registry and trace.

        Counters land as ``repro_engine_worker_*{pool=,worker=}`` series
        (so ``/metrics`` exposes them via the serve layer's
        ``repro_engine_`` passthrough); stage seconds also fold into the
        active span tree as ``engine.worker.*`` children, and any
        timestamped worker events append verbatim — their worker-side
        ``pid``/``tid``/``trace_id`` preserved — so a Chrome export
        shows every process on one timeline.
        """
        for worker_id, delta in deltas:
            counters = delta.get("counters", {})
            if counters:
                registry.merge_counters(
                    counters,
                    labels={"pool": self.label, "worker": str(worker_id)},
                    help_texts=WORKER_COUNTER_HELP,
                )
            if not tracer.enabled:
                continue
            chunks = int(counters.get("repro_engine_worker_chunks_total", 1)) or 1
            for counter_name, span_name in _STAGE_SPANS.items():
                seconds = counters.get(counter_name)
                if seconds:
                    tracer.record(span_name, seconds, count=chunks, event=False)
            for event in delta.get("events", ()):
                tracer.add_event(
                    event["name"],
                    event["ts"],
                    event["dur"],
                    pid=event.get("pid"),
                    tid=event.get("tid"),
                    trace_id=event.get("trace_id"),
                    args=event.get("args"),
                )

    def _next_message(self, deadline: float | None, waiting_for: str):
        """One result-queue message, guarded by liveness and the deadline."""
        while True:
            try:
                return self._result_queue.get(timeout=POLL_INTERVAL)
            except queue_module.Empty:
                dead = [
                    (process.name, process.exitcode)
                    for process in self._processes
                    if not process.is_alive()
                ]
                if dead:
                    raise EngineWorkerError(
                        f"engine worker process(es) died while {waiting_for}: "
                        + ", ".join(f"{name} (exit {code})" for name, code in dead)
                    ) from None
                if deadline is not None and time.monotonic() > deadline:
                    raise EngineWorkerError(
                        f"timed out while {waiting_for} "
                        f"(pool {self.label}, timeout exceeded)"
                    ) from None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _mark_broken(self) -> None:
        self.broken = True
        log_event("engine.pool.broken", pool=self.label, runs=self.runs_completed)
        self.shutdown(force=True)

    def shutdown(self, force: bool = False, join_timeout: float = 2.0) -> None:
        """Stop workers, release queues, unlink shared segments (idempotent)."""
        if self.closed:
            return
        self.closed = True
        log_event(
            "engine.pool.shutdown",
            pool=self.label,
            forced=force,
            runs=self.runs_completed,
        )
        if not force:
            for task_queue in self._task_queues:
                try:
                    task_queue.put(("stop",))
                except (ValueError, OSError):  # pragma: no cover — queue gone
                    pass
            for process in self._processes:
                process.join(timeout=join_timeout)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=join_timeout)
        for q in (*self._task_queues, self._result_queue):
            q.cancel_join_thread()
            q.close()
        if self._published is not None:
            self._published.close()
            self._published = None
        self._workers_gauge().set(0, pool=self.label)

    def __repr__(self) -> str:
        status = "closed" if self.closed else ("broken" if self.broken else "live")
        return (
            f"PersistentWorkerPool(workers={self.workers}, "
            f"start_method={self.start_method!r}, {status}, "
            f"runs={self.runs_completed})"
        )


# ----------------------------------------------------------------------
# Module-level pool registry: one pool per (workers, start method)
# ----------------------------------------------------------------------
_POOLS: dict[tuple[int, str], PersistentWorkerPool] = {}
_POOLS_LOCK = threading.Lock()


def get_engine_pool(
    workers: int, start_method: str | None = None
) -> PersistentWorkerPool:
    """The shared persistent pool for ``(workers, start_method)``.

    Pools persist across engine runs (that is the point); a pool found
    broken or dead is disposed of and rebuilt transparently.
    """
    method = resolve_start_method(start_method)
    key = (workers, method)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is not None and not pool.alive():
            pool.shutdown(force=True)
            pool = None
        if pool is None:
            pool = PersistentWorkerPool(workers, start_method=method)
            _POOLS[key] = pool
        return pool


def active_pools() -> list[PersistentWorkerPool]:
    """Every registry pool that is currently usable."""
    with _POOLS_LOCK:
        return [pool for pool in _POOLS.values() if pool.alive()]


def shutdown_engine_pools() -> None:
    """Stop every registry pool and unlink its shared memory."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_engine_pools)
