"""The link-prediction serving surface: rank / score / models / health.

One :class:`LinkPredictionService` fronts a :class:`~repro.serve.registry.
ModelRegistry` with the :class:`~repro.serve.scheduler.BatchScheduler`
and an LRU result cache:

* :meth:`rank` — top-k entity completion for one query, scored against
  the model's static candidate set (or the full vocabulary) with known
  true answers optionally filtered out;
* :meth:`score` — triple scores *and filtered ranks* computed by exactly
  the offline engine's kernel (`score_candidates_batch` +
  `collect_known_answers` + `chunk_filtered_ranks`), so a served rank is
  bitwise-identical to the same query's rank in
  :func:`repro.core.ranking.evaluate_full`;
* :meth:`evaluate_model` — a full offline evaluation of one registered
  model, executed on a **service-owned persistent worker pool**
  (``engine_workers > 1``) that stays warm across requests — the shared
  state is published into shared memory once per model and reused until
  :meth:`close`;
* :meth:`models` / :meth:`health` — introspection for ``/v1/models`` and
  ``/healthz``.

Every response is a plain JSON-serialisable dict, so the HTTP layer and
the in-process client expose byte-identical payloads.
"""

from __future__ import annotations

import copy
import threading
import time

import numpy as np

from repro.engine.chunking import chunk_filtered_ranks, collect_known_answers
from repro.engine.engine import EvaluationEngine
from repro.engine.pool import PersistentWorkerPool
from repro.kg.graph import SIDES, Side
from repro.obs.metrics import MetricsRegistry
from repro.serve.registry import ModelRegistry
from repro.serve.scheduler import BatchKey, BatchScheduler, RankQuery
from repro.store.lru import LRUCache

#: Default ceiling on requests coalesced into one scoring call.
DEFAULT_MAX_BATCH = 64

#: Default micro-batch deadline (seconds): the latency batching may add.
DEFAULT_MAX_WAIT = 0.002

#: Default top-k result cache capacity (entries, not bytes).
DEFAULT_CACHE_SIZE = 1024

#: Default per-request resolution timeout (seconds).
DEFAULT_TIMEOUT = 30.0


def _engine_metrics_text(exclude: MetricsRegistry) -> str:
    """Engine-pool families from the process-global registry.

    The engine publishes its shm/pool gauges process-globally (workers
    must never touch a registry), while the service renders its own
    isolated registry — so a ``/metrics`` scrape would miss the pool
    unless the engine families are appended here.  ``exclude`` guards
    the double-render when a caller wired the global registry in.
    """
    from repro.obs import get_registry

    registry = get_registry()
    if registry is exclude:
        return ""
    lines = []
    for line in registry.render().splitlines():
        name = line.split(" ", 3)[2] if line.startswith("#") else line
        if name.startswith("repro_engine_"):
            lines.append(line)
    return "\n".join(lines) + "\n" if lines else ""


class LinkPredictionService:
    """Micro-batched online scoring over a model registry.

    Parameters
    ----------
    registry:
        The models and candidate sets to serve.
    max_batch_size / max_wait:
        Micro-batching knobs (see :class:`BatchScheduler`).
    cache_size:
        LRU capacity of the top-k result cache; ``0`` disables caching
        (every request is scored).
    timeout:
        Seconds a request may wait for its batch before failing.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` to publish
        into; the service builds its own by default so ``/metrics``
        reflects exactly this service.
    engine_workers / engine_start_method:
        Evaluation fan-out for :meth:`evaluate_model`.  ``engine_workers
        <= 1`` (default) evaluates serially in-process; ``> 1`` lazily
        starts one :class:`~repro.engine.pool.PersistentWorkerPool` owned
        by this service and reuses it for every evaluation request until
        :meth:`close`.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch_size: int = DEFAULT_MAX_BATCH,
        max_wait: float = DEFAULT_MAX_WAIT,
        cache_size: int = DEFAULT_CACHE_SIZE,
        timeout: float = DEFAULT_TIMEOUT,
        metrics: MetricsRegistry | None = None,
        engine_workers: int = 1,
        engine_start_method: str | None = None,
    ):
        self.registry = registry
        self.graph = registry.graph
        self.timeout = timeout
        self.engine_workers = max(1, engine_workers)
        self.engine_start_method = engine_start_method
        self._engine_pool = None
        self._engine_lock = threading.Lock()
        self._evaluations_total = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.scheduler = BatchScheduler(
            self._score_batch,
            max_batch_size=max_batch_size,
            max_wait=max_wait,
            metrics=self.metrics,
        )
        self._cache = LRUCache(cache_size)
        self._cache_lock = threading.Lock()
        self._started_at = time.time()
        self._requests_total = self.metrics.counter(
            "repro_serve_requests_total",
            "Requests served, by endpoint",
            labels=("endpoint",),
        )
        self._request_seconds = self.metrics.histogram(
            "repro_serve_request_seconds",
            "End-to-end request latency, by endpoint",
            labels=("endpoint",),
        )
        self._cache_hits = self.metrics.counter(
            "repro_serve_cache_hits_total", "Top-k cache hits"
        )
        self._cache_misses = self.metrics.counter(
            "repro_serve_cache_misses_total", "Top-k cache misses"
        )

    # ------------------------------------------------------------------
    # Request surface
    # ------------------------------------------------------------------
    def rank(
        self,
        model: str,
        anchor: int | str,
        relation: int | str,
        side: Side = "tail",
        k: int = 10,
        filter_known: bool = True,
        candidates: str = "filtered",
    ) -> dict:
        """Top-k completion of ``(anchor, relation, ?)`` (or ``(?, relation,
        anchor)`` for ``side="head"``).

        ``filter_known`` drops entities already linked to the anchor in
        any split — the "recommend *new* links" setting.  Results are
        deterministic: ties break toward the smaller entity id.
        """
        start = time.perf_counter()
        try:
            return self._rank(
                model, anchor, relation, side, k, filter_known, candidates
            )
        finally:
            self._requests_total.inc(endpoint="rank")
            self._request_seconds.observe(
                time.perf_counter() - start, endpoint="rank"
            )

    def _rank(
        self,
        model: str,
        anchor: int | str,
        relation: int | str,
        side: Side,
        k: int,
        filter_known: bool,
        candidates: str,
    ) -> dict:
        anchor_id = self._entity_id(anchor)
        relation_id = self._relation_id(relation)
        self._check_side(side)
        key = (model, anchor_id, relation_id, side, k, filter_known, candidates)
        with self._cache_lock:
            cached = self._cache.get(key)
        if cached is not None:
            # Deep-copied both into and out of the cache: in-process
            # callers may freely mutate their response without poisoning
            # later hits.
            self._cache_hits.inc()
            response = copy.deepcopy(cached)
            response["cached"] = True
            return response
        self._cache_misses.inc()
        query = RankQuery(
            model=model,
            relation=relation_id,
            side=side,
            anchor=anchor_id,
            kind="topk",
            k=k,
            filter_known=filter_known,
            candidates=candidates,
        )
        payload = self.scheduler.submit(query).result(self.timeout)
        entities = self.graph.entities
        response = {
            "model": model,
            "anchor": entities.label_of(anchor_id),
            "anchor_id": anchor_id,
            "relation": self.graph.relations.label_of(relation_id),
            "relation_id": relation_id,
            "side": side,
            "k": k,
            "candidates": candidates,
            "num_candidates": payload["num_candidates"],
            "filter_known": filter_known,
            "results": [
                {
                    "rank": position + 1,
                    "entity": entities.label_of(entity_id),
                    "entity_id": entity_id,
                    "score": score,
                }
                for position, (entity_id, score) in enumerate(payload["topk"])
            ],
            "cached": False,
        }
        with self._cache_lock:
            self._cache.put(key, copy.deepcopy(response))
        return response

    def score(
        self,
        model: str,
        triples,
        sides: tuple[Side, ...] = SIDES,
        candidates: str = "all",
    ) -> list[dict]:
        """Scores and filtered ranks of explicit ``(h, r, t)`` triples.

        With the default ``candidates="all"`` each rank is computed by
        the offline engine's own kernel over the full entity axis, so it
        equals the rank :func:`~repro.core.ranking.evaluate_full` reports
        for the same ``(h, r, t, side)`` query.  ``candidates="filtered"``
        ranks within the model's static candidate set instead (the
        sampled-protocol semantics).

        All queries are submitted before any result is awaited, so one
        call batches into few scoring calls even single-threaded.
        """
        start = time.perf_counter()
        try:
            return self._score(model, triples, sides, candidates)
        finally:
            self._requests_total.inc(endpoint="score")
            self._request_seconds.observe(
                time.perf_counter() - start, endpoint="score"
            )

    def _score(
        self,
        model: str,
        triples,
        sides: tuple[Side, ...],
        candidates: str,
    ) -> list[dict]:
        submitted: list[tuple[dict, object]] = []
        for triple in triples:
            raw_h, raw_r, raw_t = triple
            h = self._entity_id(raw_h)
            t = self._entity_id(raw_t)
            r = self._relation_id(raw_r)
            for side in sides:
                self._check_side(side)
                anchor, truth = (t, h) if side == "head" else (h, t)
                query = RankQuery(
                    model=model,
                    relation=r,
                    side=side,
                    anchor=anchor,
                    kind="rank",
                    truth=truth,
                    candidates=candidates,
                )
                meta = {
                    "head": self.graph.entities.label_of(h),
                    "relation": self.graph.relations.label_of(r),
                    "tail": self.graph.entities.label_of(t),
                    "head_id": h,
                    "relation_id": r,
                    "tail_id": t,
                    "side": side,
                }
                submitted.append((meta, self.scheduler.submit(query)))
        rows: list[dict] = []
        for meta, pending in submitted:
            payload = pending.result(self.timeout)
            rows.append({**meta, "score": payload["score"], "rank": payload["rank"]})
        return rows

    def evaluate_model(self, model: str, split: str = "test") -> dict:
        """``/v1/evaluate``: full filtered ranking of one registered model.

        Runs the offline engine on the serving graph's ``split``.  With
        ``engine_workers > 1`` the run executes on the service's private
        persistent worker pool — the first request pays pool start and
        state publication, repeat requests for the same model reuse both,
        so the shared-memory footprint stays flat across requests.
        """
        start = time.perf_counter()
        try:
            kge = self.registry.model(model)  # KeyError -> 404 upstream
            engine = EvaluationEngine(
                workers=self.engine_workers,
                start_method=self.engine_start_method,
                pool=self._ensure_engine_pool(),
            )
            run = engine.run(kge, self.graph, split=split, keep_ranks=False)
            self._evaluations_total += 1
            return {
                "model": model,
                "split": split,
                "metrics": run.metrics.as_dict(),
                "num_queries": run.num_queries,
                "num_scored": run.num_scored,
                "seconds": round(run.seconds, 6),
                "workers": run.workers,
            }
        finally:
            self._requests_total.inc(endpoint="evaluate")
            self._request_seconds.observe(
                time.perf_counter() - start, endpoint="evaluate"
            )

    def _ensure_engine_pool(self):
        """The service-owned persistent pool (lazily started, auto-healed)."""
        if self.engine_workers <= 1:
            return None
        with self._engine_lock:
            pool = self._engine_pool
            if pool is not None and not pool.alive():
                pool.shutdown(force=True)
                pool = None
            if pool is None:
                pool = PersistentWorkerPool(
                    self.engine_workers, start_method=self.engine_start_method
                )
                self._engine_pool = pool
            return pool

    def engine_pool_stats(self) -> dict:
        """Lifecycle counters of the service-owned evaluation pool."""
        with self._engine_lock:
            pool = self._engine_pool
            if pool is None:
                return {
                    "workers": self.engine_workers,
                    "started": False,
                    "evaluations": self._evaluations_total,
                }
            return {
                "workers": pool.workers,
                "started": True,
                "alive": pool.alive(),
                "start_method": pool.start_method,
                "runs_completed": pool.runs_completed,
                "states_published": pool.states_published,
                "blas_threads_per_worker": pool.blas_threads_per_worker,
                "worker_blas_threads": list(pool.worker_blas_threads),
                "evaluations": self._evaluations_total,
            }

    def models(self) -> list[dict]:
        """``/v1/models``: every registered model with its metadata."""
        return self.registry.rows()

    def health(self) -> dict:
        """``/healthz``: liveness plus scheduler / cache counters."""
        with self._cache_lock:
            cache = {
                "capacity": self._cache.capacity,
                "entries": len(self._cache),
                "hits": self._cache.hits,
                "misses": self._cache.misses,
            }
        return {
            "status": "ok",
            "graph": self.graph.name,
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "models": self.registry.names(),
            "scheduler": self.scheduler.stats(),
            "cache": cache,
            "engine_pool": self.engine_pool_stats(),
        }

    def metrics_text(self) -> str:
        """``/metrics``: Prometheus text exposition of this service.

        Derived gauges (uptime, cache hit rate, mean batch size, cache
        occupancy) are refreshed at render time; counters and histograms
        accumulate live on the request path.
        """
        self.metrics.gauge(
            "repro_serve_uptime_seconds", "Seconds since the service started"
        ).set(round(time.time() - self._started_at, 3))
        with self._cache_lock:
            hits, misses = self._cache.hits, self._cache.misses
            entries = len(self._cache)
        lookups = hits + misses
        self.metrics.gauge(
            "repro_serve_cache_hit_rate", "Top-k cache hit rate over all lookups"
        ).set(hits / lookups if lookups else 0.0)
        self.metrics.gauge(
            "repro_serve_cache_entries", "Top-k cache occupancy"
        ).set(entries)
        self.metrics.gauge(
            "repro_serve_mean_batch_size", "Mean requests per scoring call"
        ).set(round(self.scheduler.mean_batch_size, 4))
        text = self.metrics.render()
        engine = _engine_metrics_text(exclude=self.metrics)
        return text + engine if engine else text

    def close(self) -> None:
        """Flush in-flight batches, stop the scheduler and the engine pool."""
        self.scheduler.close()
        with self._engine_lock:
            pool, self._engine_pool = self._engine_pool, None
        if pool is not None:
            pool.shutdown()

    def __enter__(self) -> "LinkPredictionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Id resolution
    # ------------------------------------------------------------------
    def _entity_id(self, entity: int | str) -> int:
        if isinstance(entity, str):
            entity_id = self.graph.entities.get(entity)
            if entity_id is None:
                raise KeyError(f"unknown entity {entity!r}")
            return entity_id
        entity_id = int(entity)
        if not 0 <= entity_id < self.graph.num_entities:
            raise KeyError(
                f"entity id {entity_id} outside [0, {self.graph.num_entities})"
            )
        return entity_id

    def _relation_id(self, relation: int | str) -> int:
        if isinstance(relation, str):
            relation_id = self.graph.relations.get(relation)
            if relation_id is None:
                raise KeyError(f"unknown relation {relation!r}")
            return relation_id
        relation_id = int(relation)
        if not 0 <= relation_id < self.graph.num_relations:
            raise KeyError(
                f"relation id {relation_id} outside [0, {self.graph.num_relations})"
            )
        return relation_id

    @staticmethod
    def _check_side(side: str) -> None:
        if side not in SIDES:
            raise ValueError(f"side must be 'head' or 'tail', got {side!r}")

    # ------------------------------------------------------------------
    # The batched scoring kernel (runs on the scheduler thread)
    # ------------------------------------------------------------------
    def _score_batch(self, key: BatchKey, queries: list[RankQuery]) -> list[dict]:
        """Score one micro-batch with a single vectorized model call."""
        name, relation, side, mode = key
        model = self.registry.model(name)
        pool: np.ndarray | None = None
        if mode == "filtered":
            sets = self.registry.candidates(name)
            selected = sets.candidates(relation, side)
            # An empty column means the recommender admitted nothing for
            # this (relation, side); fall back to the full vocabulary
            # rather than serving an unanswerable query.
            pool = selected if selected.size else None
        anchors = np.asarray([query.anchor for query in queries], dtype=np.int64)
        scores = model.score_candidates_batch(anchors, relation, side, pool)
        results: list[dict | None] = [None] * len(queries)
        self._resolve_ranks(queries, results, scores, anchors, relation, side, model, pool)
        self._resolve_topk(queries, results, scores, relation, side, pool)
        return results  # type: ignore[return-value] — every slot is filled

    def _resolve_ranks(
        self, queries, results, scores, anchors, relation, side, model, pool
    ) -> None:
        """Filtered ranks for the batch's ``kind="rank"`` rows, vectorized.

        This is line-for-line the offline engine's kernel
        (:func:`repro.engine.worker.score_chunk`): same score call, same
        known-answer collection, same rank correction — which is what
        makes served ranks bitwise-equal to ``evaluate_full``'s.
        """
        rows = [i for i, query in enumerate(queries) if query.kind == "rank"]
        if not rows:
            return
        sub = scores[rows]
        truths = np.asarray([queries[i].truth for i in rows], dtype=np.int64)
        if pool is None:
            true_scores = sub[np.arange(len(rows)), truths]
        else:
            true_scores = np.diagonal(
                model.score_candidates_batch(anchors[rows], relation, side, truths)
            )
        known_rows, answers = collect_known_answers(
            self.graph.filter_index, anchors[rows], truths, relation, side
        )
        ranks = chunk_filtered_ranks(sub, true_scores, known_rows, answers, pool=pool)
        for j, i in enumerate(rows):
            results[i] = {
                "score": float(true_scores[j]),
                "rank": float(ranks[j]),
                "num_candidates": int(scores.shape[1]),
            }

    def _resolve_topk(self, queries, results, scores, relation, side, pool) -> None:
        """Top-k selection for the batch's ``kind="topk"`` rows.

        Ordering is ``(-score, entity id)`` — fully deterministic under
        ties — with known answers and the anchor itself removed when the
        query asks for filtering (a self-loop is never a *new* link).
        """
        entity_ids = pool if pool is not None else np.arange(scores.shape[1])
        for i, query in enumerate(queries):
            if query.kind != "topk":
                continue
            row = scores[i].astype(np.float64, copy=True)
            if query.filter_known:
                known = self.graph.true_answers(query.anchor, relation, side)
                exclude = np.unique(np.append(known, query.anchor))
                if pool is None:
                    row[exclude] = -np.inf
                else:
                    positions = np.searchsorted(pool, exclude)
                    np.minimum(positions, pool.size - 1, out=positions)
                    inside = pool[positions] == exclude
                    row[positions[inside]] = -np.inf
            order = np.lexsort((entity_ids, -row))
            top: list[tuple[int, float]] = []
            for position in order[: query.k]:
                if not np.isfinite(row[position]):
                    break  # only excluded entities remain
                top.append((int(entity_ids[position]), float(row[position])))
            results[i] = {"topk": top, "num_candidates": int(scores.shape[1])}

    def __repr__(self) -> str:
        return (
            f"LinkPredictionService({self.registry!r}, "
            f"scheduler={self.scheduler!r})"
        )
