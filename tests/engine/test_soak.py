"""Soak: one persistent pool, many runs, flat resource gauges.

Fifty consecutive evaluations must reuse the same worker processes and
the same published shared-memory state: worker count stays constant,
``repro_engine_shm_bytes`` stays flat (one published state, republished
zero times), and nothing accumulates run over run.  The serve path gets
the same treatment through its service-owned pool.
"""

from __future__ import annotations

import pytest

from repro.engine import EvaluationEngine, get_engine_pool
from repro.engine.blas import blas_budget
from repro.engine.shm import SHM_BYTES_GAUGE, SHM_SEGMENTS_GAUGE
from repro.models import build_model
from repro.obs import get_registry

SOAK_RUNS = 50


@pytest.fixture
def model(tiny_graph):
    return build_model(
        "distmult", tiny_graph.num_entities, tiny_graph.num_relations, dim=4, seed=0
    )


class TestPoolSoak:
    def test_fifty_runs_one_pool_flat_gauges(self, tiny_graph, model):
        engine = EvaluationEngine(workers=2, transport="shm")
        registry = get_registry()
        baseline = engine.run(model, tiny_graph, split="test")
        pool = get_engine_pool(2)
        pids = set(pool.worker_pids())
        runs_before = pool.runs_completed
        published_before = pool.states_published
        shm_bytes = registry.gauge(SHM_BYTES_GAUGE, "").value()
        shm_segments = registry.gauge(SHM_SEGMENTS_GAUGE, "").value()
        assert shm_bytes > 0 and shm_segments > 0

        for _ in range(SOAK_RUNS):
            run = engine.run(model, tiny_graph, split="test")
            assert run.metrics == baseline.metrics
            # Flat, not sawtooth: the same state serves every run.
            assert registry.gauge(SHM_BYTES_GAUGE, "").value() == shm_bytes
            assert registry.gauge(SHM_SEGMENTS_GAUGE, "").value() == shm_segments

        assert pool.alive()
        assert set(pool.worker_pids()) == pids  # zero worker churn
        assert pool.runs_completed == runs_before + SOAK_RUNS
        assert pool.states_published == published_before  # zero republishes
        assert (
            registry.gauge(
                "repro_engine_pool_workers", "", labels=("pool",)
            ).value(pool=pool.label)
            == pool.workers
        )

    def test_retraining_republishes_exactly_once(self, tiny_graph, model):
        engine = EvaluationEngine(workers=2, transport="shm")
        engine.run(model, tiny_graph, split="test")
        pool = get_engine_pool(2)
        published = pool.states_published
        # A training step mutates parameters in place; the stale shared
        # state must NOT be reused...
        next(iter(model.parameter_arrays().values()))[...] += 0.5
        engine.run(model, tiny_graph, split="test")
        assert pool.states_published == published + 1
        # ...but further runs of the now-unchanged model are reuses again.
        engine.run(model, tiny_graph, split="test")
        assert pool.states_published == published + 1


class TestServeSoak:
    def test_serve_path_reuses_service_pool(self, tiny_graph, model, tmp_path):
        from repro.serve.registry import ModelRegistry
        from repro.serve.service import LinkPredictionService
        from repro.store import ExperimentStore

        registry = ModelRegistry(ExperimentStore(tmp_path / "store"), tiny_graph)
        registry.register("dm", model)
        with LinkPredictionService(registry, engine_workers=2) as service:
            first = service.evaluate_model("dm", split="test")
            for _ in range(9):
                repeat = service.evaluate_model("dm", split="test")
                assert repeat["metrics"] == first["metrics"]
            stats = service.engine_pool_stats()
            assert stats["started"] and stats["alive"]
            assert stats["runs_completed"] == 10
            assert stats["states_published"] == 1  # one publish, nine reuses
            assert stats["evaluations"] == 10
            assert service.health()["engine_pool"]["runs_completed"] == 10
            budget = stats["blas_threads_per_worker"]
            assert budget == blas_budget(2)
            assert len(stats["worker_blas_threads"]) == 2
            for threads in stats["worker_blas_threads"]:
                assert threads is None or threads <= budget
        assert service.engine_pool_stats()["started"] is False  # close() shut it
