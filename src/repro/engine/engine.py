"""The batched, multi-worker evaluation engine.

:class:`EvaluationEngine` is the single execution core behind both
evaluation protocols: the full filtered ranking
(:func:`repro.core.ranking.evaluate_full`) and the sampled estimators
(:func:`repro.core.estimators.evaluate_sampled`).  One ``run()`` call

1. builds the deterministic chunk schedule
   (:func:`repro.engine.chunking.plan_chunks`);
2. scores the chunks — in-process for ``workers=1``, or across a
   ``multiprocessing`` pool whose workers receive the model / graph /
   pools once at pool start (:mod:`repro.engine.worker`);
3. folds the per-chunk ranks into metrics, either retaining every rank
   (the legacy API surface) or streaming them through the online
   :class:`~repro.engine.aggregator.RankAccumulator` so memory stays flat
   (``keep_ranks=False``).

Chunk results are consumed in schedule order regardless of which worker
finishes first, and scoring itself is deterministic, so ``workers=N``
produces **bitwise-identical ranks** to ``workers=1`` —
``benchmarks/bench_parallel_engine.py`` asserts exactly that next to its
speed-up floor.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import multiprocessing

import numpy as np

from repro.engine.aggregator import RankAccumulator
from repro.engine.blas import blas_budget
from repro.engine.chunking import DEFAULT_CHUNK_SIZE, ChunkTask, Query, plan_chunks
from repro.engine.pool import (
    PersistentWorkerPool,
    get_engine_pool,
    resolve_transport,
)
from repro.engine.worker import (
    EvaluationState,
    build_state,
    initialize_worker,
    run_task,
    score_chunk,
)
from repro.kg.graph import SIDES, KnowledgeGraph, Side
from repro.metrics.ranking import HITS_AT, RankingMetrics, aggregate_ranks
from repro.models.base import KGEModel
from repro.obs import get_registry, get_tracer
from repro.obs.log import log_event

if TYPE_CHECKING:
    from repro.core.sampling import NegativePools


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker-count request into a concrete process count.

    ``None`` and ``0`` mean serial; any negative value means "all cores"
    (``os.cpu_count()``), mirroring the ``-1`` convention of joblib.
    """
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return max(1, os.cpu_count() or 1)
    return workers


@dataclass
class EngineRun:
    """The outcome of one engine pass over a split."""

    metrics: RankingMetrics
    ranks: dict[Query, float] | None = field(repr=False, default=None)
    seconds: float = 0.0
    num_scored: int = 0
    num_queries: int = 0
    workers: int = 1
    chunk_size: int = DEFAULT_CHUNK_SIZE


class EvaluationEngine:
    """Chunk-streamed, optionally multi-process ranking evaluation.

    Parameters
    ----------
    workers:
        Number of scoring processes.  ``1`` (default) runs in-process with
        zero multiprocessing overhead; ``N > 1`` fans chunks across a
        process pool; negative means all cores.
    chunk_size:
        Queries ranked per score-matrix chunk — bounds the ``b x k``
        intermediate at ``chunk_size x num_candidates`` floats.
    start_method:
        Optional ``multiprocessing`` start method (``"fork"``,
        ``"spawn"``, ``"forkserver"``).  ``None`` defers to
        ``$REPRO_ENGINE_START_METHOD``, then the platform default; on
        Linux that is ``fork``, under which the legacy transport inherits
        state copy-on-write instead of pickling it.
    transport:
        How parallel runs move data: ``"shm"`` (default) publishes the
        state into ``multiprocessing.shared_memory`` once and reuses a
        persistent worker pool across runs (:mod:`repro.engine.pool`);
        ``"pickle"`` is the legacy per-run ``multiprocessing.Pool`` path
        that serialises the state at every pool start.  ``None`` defers
        to ``$REPRO_ENGINE_TRANSPORT``, then ``"shm"``.  Serial runs
        (``workers=1``) never touch either transport.
    timeout:
        Optional per-run deadline in seconds for the shm transport; a run
        exceeding it raises :class:`~repro.engine.pool.EngineWorkerError`
        instead of hanging (the fault tests lean on this).
    pool:
        Optional caller-owned :class:`~repro.engine.pool.
        PersistentWorkerPool` the shm transport should run on instead of
        the shared module-level registry — the serve layer injects its
        private pool here so its lifecycle (and ``close()``) stays fully
        its own.
    """

    def __init__(
        self,
        workers: int = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        start_method: str | None = None,
        transport: str | None = None,
        timeout: float | None = None,
        pool: "PersistentWorkerPool | None" = None,
    ):
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.workers = resolve_workers(workers)
        self.chunk_size = chunk_size
        self.start_method = start_method
        self.transport = resolve_transport(transport)
        self.timeout = timeout
        self.pool = pool

    # ------------------------------------------------------------------
    def run(
        self,
        model: KGEModel,
        graph: KnowledgeGraph,
        split: str = "test",
        pools: "NegativePools | None" = None,
        hits_at: tuple[int, ...] = HITS_AT,
        sides: tuple[Side, ...] = SIDES,
        keep_ranks: bool = True,
    ) -> EngineRun:
        """Evaluate ``model`` on one split (sampled iff ``pools`` given).

        With ``keep_ranks=True`` the result carries the per-query rank
        dictionary and the metrics are aggregated exactly as the
        pre-engine implementations did (bit-compatible).  With
        ``keep_ranks=False`` ranks are folded into the online accumulator
        chunk by chunk and discarded, keeping memory flat on arbitrarily
        large splits.

        The two modes agree up to float rounding on well-formed splits;
        if a split contains *duplicate* triples, the rank dictionary
        keeps one entry per distinct query (legacy semantics) while the
        streaming accumulator counts every scored query.
        """
        start = time.perf_counter()
        tracer = get_tracer()
        registry = get_registry()
        registry.gauge(
            "repro_engine_workers", "Worker processes of the last engine run"
        ).set(self.workers)
        registry.gauge(
            "repro_engine_chunk_size", "Chunk size of the last engine run"
        ).set(self.chunk_size)
        with tracer.span("engine.run"):
            state = build_state(model, graph, split, sides=sides, pools=pools)
            tasks = plan_chunks(
                [((g.relation, g.side), g.queries) for g in state.groups],
                self.chunk_size,
            )
            accumulator = RankAccumulator(hits_at)
            ranks: dict[Query, float] | None = {} if keep_ranks else None
            num_scored = 0
            num_queries = 0

            for task, (chunk_ranks, chunk_scored) in self._scored_chunks(state, tasks):
                num_scored += chunk_scored
                num_queries += chunk_ranks.size
                if ranks is None:
                    accumulator.update(chunk_ranks)
                else:
                    group = state.groups[task.group]
                    for (anchor, truth, h, t), rank in zip(
                        group.queries[task.start : task.stop], chunk_ranks
                    ):
                        ranks[(h, task.relation, t, task.side)] = float(rank)
            tracer.add("chunks", len(tasks))
            tracer.add("queries", num_queries)
            tracer.add("scored", num_scored)
        registry.counter(
            "repro_engine_chunks_total", "Chunks scored by the evaluation engine"
        ).inc(len(tasks))
        registry.counter(
            "repro_engine_queries_total", "Queries ranked by the evaluation engine"
        ).inc(num_queries)

        if ranks is not None:
            metrics = aggregate_ranks(ranks.values(), hits_at=hits_at)
            num_queries = len(ranks)  # duplicate queries collapse, as before
        else:
            metrics = accumulator.finalize()
        log_event(
            "engine.run",
            split=split,
            workers=self.workers,
            transport=self.transport if self.workers > 1 else "serial",
            chunks=len(tasks),
            queries=num_queries,
            entities=num_scored,
            seconds=round(time.perf_counter() - start, 6),
        )
        return EngineRun(
            metrics=metrics,
            ranks=ranks,
            seconds=time.perf_counter() - start,
            num_scored=num_scored,
            num_queries=num_queries,
            workers=self.workers,
            chunk_size=self.chunk_size,
        )

    # ------------------------------------------------------------------
    def _scored_chunks(
        self, state: EvaluationState, tasks: list[ChunkTask]
    ) -> Iterator[tuple[ChunkTask, tuple[np.ndarray, int]]]:
        """Yield ``(task, (ranks, scored))`` in deterministic schedule order."""
        tracer = get_tracer()
        workers = min(self.workers, len(tasks)) if tasks else 1
        if workers <= 1:
            if tracer.enabled:
                # A perf_counter pair per chunk is cheaper than a context
                # manager in a loop that may run thousands of times.
                for task in tasks:
                    chunk_start = time.perf_counter()
                    result = score_chunk(state, task)
                    tracer.record("engine.chunk", time.perf_counter() - chunk_start)
                    yield task, result
            else:
                for task in tasks:
                    yield task, score_chunk(state, task)
            return
        if self.transport == "shm":
            pool = self.pool if self.pool is not None else get_engine_pool(
                workers, self.start_method
            )
            wait_start = time.perf_counter()
            results = pool.run_tasks(state, tasks, timeout=self.timeout)
            # The pool returns every chunk at once; one record covers the
            # whole merge-side wait (serial runs keep per-chunk records).
            tracer.record("engine.chunk", time.perf_counter() - wait_start)
            yield from zip(tasks, results)
            return
        context = multiprocessing.get_context(self.start_method)
        with context.Pool(
            processes=workers,
            initializer=initialize_worker,
            initargs=(state, blas_budget(workers)),
        ) as pool:
            # imap preserves submission order, so the merge is
            # schedule-ordered no matter which worker finishes first.
            # Workers are separate processes, so only the merge-side wait
            # is observable here.
            results = pool.imap(run_task, tasks)
            for task in tasks:
                chunk_start = time.perf_counter()
                result = next(results)
                tracer.record("engine.chunk", time.perf_counter() - chunk_start)
                yield task, result

    def __repr__(self) -> str:
        return (
            f"EvaluationEngine(workers={self.workers}, "
            f"chunk_size={self.chunk_size})"
        )
