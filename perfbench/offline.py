"""The two offline workloads: the paper's train-and-evaluate loop and
parallel full ranking on the large graph.

Both drive the program through its public API only —
:class:`repro.core.EvaluationProtocol`, :class:`repro.models.Trainer`
and :func:`repro.core.ranking.evaluate_full` — and check a seeded subset
of every evaluation's ranks against :mod:`perfbench.oracle`.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench.harness import DIM, Outcome, Setups, fresh_graph, median, peak_rss_mb, tail
from perfbench.oracle import ReferenceRanker
from perfbench.tracing import root_span

#: Test queries per evaluation whose rank the reference recomputes.
CHECKED_QUERIES = 8


class _Budget(Exception):
    """Raised from the epoch callback when the run's time is used up."""


def _prepare(graph, types, seed: int, workers: int = 1):
    from repro.core import EvaluationProtocol

    protocol = EvaluationProtocol(
        fresh_graph(graph),
        recommender="l-wd",
        strategy="static",
        sample_fraction=0.1,
        types=types,
        seed=seed,
        workers=workers,
    )
    protocol.prepare()
    return protocol


def _checked_queries(graph, seed: int) -> list[tuple[int, int, int, str]]:
    rng = np.random.default_rng(seed)
    triples = graph.test.array
    rows = rng.choice(len(triples), size=CHECKED_QUERIES, replace=False)
    sides = rng.choice(["head", "tail"], size=CHECKED_QUERIES)
    return [
        (int(triples[i, 0]), int(triples[i, 1]), int(triples[i, 2]), str(side))
        for i, side in zip(rows, sides)
    ]


def _check(outcome: Outcome, oracle, model, queries, result, protocol=None) -> None:
    """One evaluation call is one operation; any wrong checked rank fails it."""
    outcome.attempted += 1
    for query in queries:
        pool = None
        if protocol is not None:
            pool = protocol.pools.pool(query[1], query[3]).tolist()
        problem = oracle.check_rank(model, query, result.ranks[query], pool)
        if problem is not None:
            outcome.fail(problem)
            return


def _kendall(a: list[float], b: list[float]) -> float:
    from scipy.stats import kendalltau

    return float(kendalltau(a, b).statistic)


def _put_setups(outcome: Outcome, times: list[float]) -> None:
    outcome.put("setup_s", median(times), "s", len(times))
    outcome.series["setup_s"] = times


def _put_evaluations(outcome: Outcome, sampled: list[float], full: list[float]) -> None:
    """Mean call times (bound-checked, ms), median call times and tails.

    The bound-checked figure is the mean, the time a run spends per
    evaluation: full ranking on two workers is bimodal (about 1.4 s or
    2.1 s per call on two cores, from BLAS oversubscription, in nearly
    equal shares), so its median jumps between the modes from run to run.
    """
    for kind, seconds in (("sampled", sampled), ("full", full)):
        outcome.put(f"{kind}_ms", float(np.mean(seconds)) * 1e3, "ms", len(seconds))
        outcome.note(f"{kind}_eval_s", median(seconds), "s", len(seconds))
        outcome.series[f"{kind}_eval_s"] = seconds
        label, value = tail(seconds)
        outcome.note(f"{kind}_eval_{label}_s", value, "s", len(seconds))


def _stamp_pool_metrics(outcome: Outcome, protocol) -> None:
    pools = protocol.pools
    num_pools = sum(len(pools.pools[side]) for side in ("head", "tail"))
    outcome.note("core.pool_entities", pools.total_sampled(), "count")
    outcome.note("core.pool_base", num_pools * protocol.graph.num_entities, "count")


# ----------------------------------------------------------------------
# train-eval-wikikg2
# ----------------------------------------------------------------------
TRAIN_EVAL_DATASET = "wikikg2-lite"

#: Checkpoints the quality figures (MAE, Kendall) are computed over.
QUALITY_EPOCHS = 5


def train_eval(dataset, seed: int, seconds: float | None, epochs: int | None,
               setups: int, outcome: Outcome, recorder=None) -> float:
    """Prepare, then train ComplEx and evaluate every epoch's checkpoint.

    With ``seconds`` the run, set-ups included, lasts about that long
    (and trains at least :data:`QUALITY_EPOCHS` epochs); with ``epochs``
    it runs exactly that many, which the traced run uses so its counts
    repeat exactly.  Returns the wall time of the measured work.
    """
    from repro.core import ranking
    from repro.models import Trainer, TrainingConfig, build_model

    def setup():
        with root_span(recorder, "op.setup"):
            return _prepare(dataset.graph, dataset.types, seed)

    repeats = Setups(setups, setup)
    protocol = repeats.before()
    deadline = repeats.deadline(seconds or 0.0)
    graph = protocol.graph
    oracle = ReferenceRanker(graph)
    queries = _checked_queries(graph, seed)
    model = build_model("complex", graph.num_entities, graph.num_relations, dim=DIM, seed=seed)
    sampled_times, full_times, epoch_times = [], [], []
    sampled_mrr, full_mrr = [], []
    began = time.perf_counter()

    def after_epoch(epoch, model, history):
        epoch_times.append(history.records[-1].seconds)
        start = time.perf_counter()
        sampled = protocol.evaluate(model)
        sampled_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        full = ranking.evaluate_full(model, graph)
        full_times.append(time.perf_counter() - start)
        sampled_mrr.append(sampled.metrics.mrr)
        full_mrr.append(full.metrics.mrr)
        # Not a layer span: the check's time leaves the training loop's
        # self time and counts as unaccounted (see layer_coverage).
        with root_span(recorder, "bench.check"):
            _check(outcome, oracle, model, queries, sampled, protocol)
            _check(outcome, oracle, model, queries, full)
        done = epoch + 1
        if epochs is None:
            if done >= QUALITY_EPOCHS and time.perf_counter() >= deadline:
                raise _Budget
        elif done >= epochs:
            raise _Budget

    trainer = Trainer(TrainingConfig(epochs=10_000, seed=seed))
    try:
        with root_span(recorder, "op.train"):
            trainer.fit(model, graph, callbacks=[after_epoch])
    except _Budget:
        pass
    wall = time.perf_counter() - began
    outcome.attempted += len(epoch_times)  # every epoch is an operation too
    outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
    _stamp_pool_metrics(outcome, protocol)
    protocol = graph = trainer = None
    _put_setups(outcome, repeats.after())
    _put_evaluations(outcome, sampled_times, full_times)
    n = len(epoch_times)
    outcome.note(
        "train_triples_per_s", n * len(dataset.graph.train) / sum(epoch_times), "1/s", n
    )
    quality = min(QUALITY_EPOCHS, n)
    outcome.note(
        "mrr_mae",
        float(np.mean(np.abs(np.subtract(sampled_mrr[:quality], full_mrr[:quality])))),
        "mrr",
        quality,
    )
    outcome.note("mrr_kendall", _kendall(sampled_mrr[:quality], full_mrr[:quality]), "tau", quality)
    outcome.note("train.epoch_s_total", sum(epoch_times), "s", n)
    return repeats.times[0] + wall


def _shm_bytes() -> float:
    from repro.engine.shm import SHM_BYTES_GAUGE
    from repro.obs import get_registry

    return get_registry().gauge(SHM_BYTES_GAUGE).value()


# ----------------------------------------------------------------------
# full-rank-xl-2w
# ----------------------------------------------------------------------
FULL_RANK_DATASET = "wikikg2-xl"
WORKERS = 2


def full_rank(dataset, seed: int, seconds: float | None, cycles: int | None,
              setups: int, outcome: Outcome, recorder=None) -> float:
    """Full filtered ranking with two pool workers, beside sampled ranking.

    Set-up builds the filter index, prepares the pools and starts the
    persistent shared-memory pool.  Each cycle then evaluates a fresh
    checkpoint, so its parameters are published to the workers again,
    as they would be once per epoch.  The sampled evaluation runs
    serially: on two workers it took ~1 s per call with a spread of
    ±20 % from BLAS oversubscription, too wide for any bound, while the
    full ranking on the pool is what this workload is about.  With
    ``seconds`` the run, set-ups included, lasts about that long; with
    ``cycles`` exactly that many cycles run.  Returns the wall time of
    the measured work.
    """
    from repro.core import ranking
    from repro.engine import get_engine_pool, shutdown_engine_pools
    from repro.models import build_model

    def setup():
        with root_span(recorder, "op.setup"):
            return _prepare(dataset.graph, dataset.types, seed), get_engine_pool(WORKERS)

    repeats = Setups(setups, setup, lambda _: shutdown_engine_pools())
    protocol, pool = repeats.before()
    deadline = repeats.deadline(seconds or 0.0)
    graph = protocol.graph
    oracle = ReferenceRanker(graph)
    queries = _checked_queries(graph, seed)
    sampled_times, full_times = [], []
    cycle = 0
    try:
        while cycle < cycles if cycles is not None else (
            cycle == 0 or time.perf_counter() < deadline
        ):
            model = build_model(
                "complex", graph.num_entities, graph.num_relations, dim=DIM,
                seed=seed * 1000 + cycle,
            )
            with root_span(recorder, "op.cycle"):
                start = time.perf_counter()
                sampled = protocol.evaluate(model)
                sampled_times.append(time.perf_counter() - start)
                start = time.perf_counter()
                full = ranking.evaluate_full(model, graph, workers=WORKERS)
                full_times.append(time.perf_counter() - start)
            _check(outcome, oracle, model, queries, sampled, protocol)
            _check(outcome, oracle, model, queries, full)
            cycle += 1
        rss = peak_rss_mb() + sum(peak_rss_mb(pid) for pid in pool.worker_pids())
        outcome.note("engine.shm_bytes", _shm_bytes(), "bytes")
        _stamp_pool_metrics(outcome, protocol)
        protocol = pool = graph = None
        _put_setups(outcome, repeats.after())
    finally:
        shutdown_engine_pools()

    outcome.put("peak_rss_mb", rss, "MB", 1 + WORKERS)
    _put_evaluations(outcome, sampled_times, full_times)
    return sum(repeats.times) + sum(sampled_times) + sum(full_times)
