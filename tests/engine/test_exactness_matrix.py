"""The exactness matrix: ranks are bitwise-identical across every axis.

{1, 2, 4} workers x {fork, spawn} x {float32, float64}, on both
evaluation paths (full filtered and sampled).  The shared-memory
transport republishes nothing per run and workers write ranks straight
into the shared buffer — none of which may change a single bit relative
to the serial in-process path.  Start methods the platform lacks (fork
on Windows / macOS-spawn-default setups) skip cleanly.

codex-s-lite is too small for the parent's OpenBLAS to split a GEMM
across threads, so :class:`TestThreadedBlas` repeats the full-ranking
check on wikikg2-xl (24,445 entities), where the serial path runs
multi-threaded BLAS and each pool worker runs on its capped budget.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core.estimators import evaluate_sampled
from repro.core.ranking import evaluate_full
from repro.core.sampling import build_pools
from repro.models import build_model

WORKER_COUNTS = (1, 2, 4)
START_METHODS = ("fork", "spawn")
DTYPES = ("float32", "float64")


def _require_method(method: str) -> None:
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable on this platform")


@pytest.fixture(scope="module")
def dataset():
    from repro.datasets.zoo import load

    return load("codex-s-lite")


@pytest.fixture(scope="module")
def models(dataset):
    graph = dataset.graph
    return {
        dtype: build_model(
            "complex",
            graph.num_entities,
            graph.num_relations,
            dim=8,
            seed=0,
            dtype=dtype,
        )
        for dtype in DTYPES
    }


@pytest.fixture(scope="module")
def pools(dataset):
    return build_pools(
        dataset.graph,
        "random",
        np.random.default_rng(0),
        num_samples=32,
    )


@pytest.fixture(scope="module")
def full_baselines(dataset, models):
    return {
        dtype: evaluate_full(models[dtype], dataset.graph, workers=1)
        for dtype in DTYPES
    }


@pytest.fixture(scope="module")
def sampled_baselines(dataset, models, pools):
    return {
        dtype: evaluate_sampled(models[dtype], dataset.graph, pools, workers=1)
        for dtype in DTYPES
    }


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("start_method", START_METHODS)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestExactnessMatrix:
    def test_full_ranks_bitwise_equal(
        self, dataset, models, full_baselines, workers, start_method, dtype
    ):
        _require_method(start_method)
        result = evaluate_full(
            models[dtype],
            dataset.graph,
            workers=workers,
            start_method=start_method,
            transport="shm",
        )
        baseline = full_baselines[dtype]
        assert result.ranks == baseline.ranks
        assert result.metrics == baseline.metrics
        assert result.num_scored == baseline.num_scored

    def test_sampled_ranks_bitwise_equal(
        self, dataset, models, pools, sampled_baselines, workers, start_method, dtype
    ):
        _require_method(start_method)
        result = evaluate_sampled(
            models[dtype],
            dataset.graph,
            pools,
            workers=workers,
            start_method=start_method,
            transport="shm",
        )
        baseline = sampled_baselines[dtype]
        assert result.ranks == baseline.ranks
        assert result.metrics == baseline.metrics


@pytest.fixture(scope="module")
def xl_graph():
    from repro.datasets.zoo import load

    return load("wikikg2-xl").graph


@pytest.mark.parametrize("dtype", DTYPES)
class TestThreadedBlas:
    def test_capped_workers_match_threaded_serial(self, xl_graph, dtype):
        assert xl_graph.num_entities >= 20_000
        model = build_model(
            "complex",
            xl_graph.num_entities,
            xl_graph.num_relations,
            dim=32,
            seed=0,
            dtype=dtype,
        )
        serial = evaluate_full(model, xl_graph, workers=1)
        parallel = evaluate_full(model, xl_graph, workers=2, transport="shm")
        assert parallel.ranks == serial.ranks
        assert parallel.metrics == serial.metrics


class TestTransportParity:
    """The legacy pickle transport must agree with shm, not just serial."""

    @pytest.mark.parametrize("transport", ("shm", "pickle"))
    def test_transports_agree(self, dataset, models, full_baselines, transport):
        result = evaluate_full(
            models["float64"], dataset.graph, workers=2, transport=transport
        )
        assert result.ranks == full_baselines["float64"].ranks

    def test_env_knob_selects_transport(self, dataset, models, monkeypatch):
        from repro.engine import EvaluationEngine

        monkeypatch.setenv("REPRO_ENGINE_TRANSPORT", "pickle")
        assert EvaluationEngine(workers=2).transport == "pickle"
        monkeypatch.setenv("REPRO_ENGINE_TRANSPORT", "shm")
        assert EvaluationEngine(workers=2).transport == "shm"
        monkeypatch.setenv("REPRO_ENGINE_TRANSPORT", "bogus")
        with pytest.raises(ValueError, match="transport"):
            EvaluationEngine(workers=2)

    def test_env_knob_selects_start_method(self, monkeypatch):
        from repro.engine import resolve_start_method

        monkeypatch.delenv("REPRO_ENGINE_START_METHOD", raising=False)
        default = multiprocessing.get_start_method()
        assert resolve_start_method(None) == default
        monkeypatch.setenv("REPRO_ENGINE_START_METHOD", "spawn")
        assert resolve_start_method(None) == "spawn"
        # An explicit argument always beats the environment.
        assert resolve_start_method("spawn") == "spawn"
        with pytest.raises(ValueError, match="start method"):
            resolve_start_method("bogus")
