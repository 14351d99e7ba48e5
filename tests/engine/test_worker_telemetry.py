"""Worker-side telemetry: shipped deltas, merged families, exact ranks.

Each persistent-pool worker runs a private registry + tracer and ships
counter deltas (and, with timelines on, timestamped span events) back on
its chunk replies; the parent merges them into per-worker-labelled
``repro_engine_worker_*`` families and folds stage seconds into the
active trace.  These tests pin the contract: both workers get series,
telemetry never changes the ranks, ``REPRO_ENGINE_TELEMETRY=0`` turns
the shipping off, and cross-process events share the caller's trace id.
"""

from __future__ import annotations

import io
import json
import os

import numpy as np
import pytest

from repro.engine import PersistentWorkerPool, build_state, plan_chunks
from repro.engine.blas import blas_budget
from repro.engine.pool import WORKER_COUNTER_HELP, resolve_telemetry
from repro.models import build_model
from repro.obs import get_registry, set_tracing
from repro.obs.context import TraceContext, use_context
from repro.obs.log import configure_logging

RUN_TIMEOUT = 60.0


@pytest.fixture(autouse=True)
def _tracing_off_after():
    yield
    set_tracing(False)


@pytest.fixture
def pool():
    pool = PersistentWorkerPool(2)
    yield pool
    pool.shutdown(force=True)


@pytest.fixture
def state(tiny_graph):
    model = build_model(
        "distmult", tiny_graph.num_entities, tiny_graph.num_relations, dim=4, seed=0
    )
    return build_state(model, tiny_graph, "test")


def chunk_tasks(state, chunk_size: int = 1):
    return plan_chunks(
        [((g.relation, g.side), g.queries) for g in state.groups], chunk_size
    )


def _chunks_counter():
    return get_registry().counter(
        "repro_engine_worker_chunks_total", labels=("pool", "worker")
    )


class TestMergedFamilies:
    def test_every_worker_gets_a_labelled_series(self, pool, state):
        tasks = chunk_tasks(state)
        assert len(tasks) >= 2  # round-robin must reach both workers
        counter = _chunks_counter()
        before = {
            worker: counter.value(pool=pool.label, worker=worker)
            for worker in ("0", "1")
        }
        pool.run_tasks(state, tasks, timeout=RUN_TIMEOUT, telemetry=True)
        gained = {
            worker: counter.value(pool=pool.label, worker=worker) - before[worker]
            for worker in ("0", "1")
        }
        assert gained["0"] > 0 and gained["1"] > 0
        assert gained["0"] + gained["1"] == len(tasks)

    def test_stage_families_appear_on_the_exposition(self, pool, state):
        pool.run_tasks(state, chunk_tasks(state), timeout=RUN_TIMEOUT, telemetry=True)
        text = get_registry().render()
        for family in (
            "repro_engine_worker_chunks_total",
            "repro_engine_worker_queries_total",
            "repro_engine_worker_entities_total",
            "repro_engine_worker_score_seconds_total",
            "repro_engine_worker_busy_seconds_total",
        ):
            assert family in WORKER_COUNTER_HELP  # documented family
            assert f'{family}{{pool="{pool.label}",worker="0"}}' in text

    def test_attach_seconds_ship_on_the_ready_ack(self, pool, state):
        attach = get_registry().counter(
            "repro_engine_worker_attach_seconds_total", labels=("pool", "worker")
        )
        before = sum(
            attach.value(pool=pool.label, worker=worker) for worker in ("0", "1")
        )
        pool.ensure_state(state)
        after = sum(
            attach.value(pool=pool.label, worker=worker) for worker in ("0", "1")
        )
        assert after > before

    def test_off_ships_nothing(self, pool, state):
        tasks = chunk_tasks(state)
        counter = _chunks_counter()
        before = counter.value(pool=pool.label, worker="0") + counter.value(
            pool=pool.label, worker="1"
        )
        pool.run_tasks(state, tasks, timeout=RUN_TIMEOUT, telemetry=False)
        after = counter.value(pool=pool.label, worker="0") + counter.value(
            pool=pool.label, worker="1"
        )
        assert after == before


class TestExactness:
    def test_ranks_bitwise_equal_telemetry_on_off(self, pool, state):
        tasks = chunk_tasks(state)
        with_telemetry = pool.run_tasks(
            state, tasks, timeout=RUN_TIMEOUT, telemetry=True
        )
        without = pool.run_tasks(state, tasks, timeout=RUN_TIMEOUT, telemetry=False)
        for (ranks_on, scored_on), (ranks_off, scored_off) in zip(
            with_telemetry, without
        ):
            assert scored_on == scored_off
            np.testing.assert_array_equal(ranks_on, ranks_off)

    def test_timeline_run_matches_untimed_run(self, pool, state):
        tasks = chunk_tasks(state)
        baseline = pool.run_tasks(state, tasks, timeout=RUN_TIMEOUT, telemetry=False)
        set_tracing(True)  # timelines on: workers ship events too
        traced = pool.run_tasks(state, tasks, timeout=RUN_TIMEOUT, telemetry=True)
        for (ranks_a, _), (ranks_b, _) in zip(baseline, traced):
            np.testing.assert_array_equal(ranks_a, ranks_b)


class TestResolveTelemetry:
    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_TELEMETRY", "0")
        assert resolve_telemetry(True) is True
        monkeypatch.setenv("REPRO_ENGINE_TELEMETRY", "1")
        assert resolve_telemetry(False) is False

    @pytest.mark.parametrize("value", ["0", "false", "off", "no", " OFF "])
    def test_env_disables(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_ENGINE_TELEMETRY", value)
        assert resolve_telemetry() is False

    def test_default_and_truthy_env_enable(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE_TELEMETRY", raising=False)
        assert resolve_telemetry() is True
        monkeypatch.setenv("REPRO_ENGINE_TELEMETRY", "1")
        assert resolve_telemetry() is True

    def test_env_kill_switch_reaches_the_pool(self, pool, state, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_TELEMETRY", "0")
        tasks = chunk_tasks(state)
        counter = _chunks_counter()
        before = counter.value(pool=pool.label, worker="0")
        pool.run_tasks(state, tasks, timeout=RUN_TIMEOUT)  # telemetry=None: env rules
        assert counter.value(pool=pool.label, worker="0") == before


class TestTimeline:
    def test_worker_events_cross_process_on_one_trace(self, pool, state):
        tracer = set_tracing(True)
        tasks = chunk_tasks(state)
        with use_context(TraceContext(trace_id="tel-e2e")):
            pool.run_tasks(state, tasks, timeout=RUN_TIMEOUT, telemetry=True)
        worker_events = [
            event
            for event in tracer.events()
            if event["name"].startswith("engine.worker.")
        ]
        assert worker_events
        names = {event["name"] for event in worker_events}
        assert {
            "engine.worker.queue_wait",
            "engine.worker.score",
            "engine.worker.write",
        } <= names
        pids = {event["pid"] for event in worker_events}
        assert os.getpid() not in pids  # genuinely recorded in the workers
        assert pids == set(pool.worker_pids())
        assert {event["trace_id"] for event in worker_events} == {"tel-e2e"}

    def test_stage_spans_fold_without_duplicate_events(self, pool, state):
        tracer = set_tracing(True, timeline=False)
        tasks = chunk_tasks(state)
        pool.run_tasks(state, tasks, timeout=RUN_TIMEOUT, telemetry=True)
        assert tracer.events() == []  # aggregate fold only, no synthesized events
        spans = {node["name"]: node for node in tracer.summary()["spans"]}
        assert spans["engine.worker.score"]["count"] == len(tasks)
        assert spans["engine.worker.score"]["seconds"] > 0.0


class TestLifecycleLogging:
    def test_pool_lifecycle_emits_correlated_json_lines(self, state):
        stream = io.StringIO()
        try:
            configure_logging(stream)
            pool = PersistentWorkerPool(2)
            pool.run_tasks(
                state, chunk_tasks(state), timeout=RUN_TIMEOUT, telemetry=True
            )
            pool.shutdown()
        finally:
            configure_logging(None)
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        events = {line["event"]: line for line in lines}
        assert events["engine.pool.start"]["workers"] == 2
        assert events["engine.pool.start"]["blas_threads_per_worker"] == blas_budget(2)
        assert events["engine.state.publish"]["shm_bytes"] > 0
        assert events["engine.pool.shutdown"]["runs"] == 1
