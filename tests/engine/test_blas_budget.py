"""BLAS thread budgets: pool workers share the cores, the parent keeps its own.

Every engine worker caps each loaded OpenBLAS at
``max(1, usable_cores // workers)`` threads before it scores anything;
the parent process is never touched.  Capping is irreversible within a
process, so every check that lowers a count runs in a subprocess or a
worker, never in the test process itself.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import PersistentWorkerPool, blas, build_state, plan_chunks
from repro.engine.blas import blas_budget, blas_threads, limit_blas_threads
from repro.engine.worker import initialize_worker
from repro.models import build_model

SRC = Path(__file__).resolve().parents[2] / "src"
START_METHODS = ("fork", "spawn")
RUN_TIMEOUT = 60.0

pytestmark = pytest.mark.skipif(not blas_threads(), reason="no OpenBLAS loaded")


def _require_method(method: str) -> None:
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} unavailable on this platform")


def run_python(code: str, **env: str) -> dict:
    """Run ``code`` in a fresh interpreter; returns its last stdout line as JSON."""
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC), **env},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture
def state(tiny_graph):
    model = build_model(
        "distmult", tiny_graph.num_entities, tiny_graph.num_relations, dim=4, seed=0
    )
    return build_state(model, tiny_graph, "test")


def chunk_tasks(state):
    return plan_chunks([((g.relation, g.side), g.queries) for g in state.groups], 1)


class TestLimit:
    def test_caps_every_loaded_library(self):
        found = run_python(
            "import json, numpy, scipy.linalg\n"
            "from repro.engine.blas import blas_threads, limit_blas_threads\n"
            "before = blas_threads()\n"
            "print(json.dumps({'before': before, 'after': limit_blas_threads(1)}))\n"
        )
        assert found["before"]
        assert set(found["after"]) == set(found["before"])
        assert set(found["after"].values()) == {1}

    def test_never_raises_a_count(self):
        before = blas_threads()
        assert limit_blas_threads(max(before.values()) + 1) == before
        assert blas_threads() == before

    def test_no_openblas_is_a_no_op(self, tmp_path, monkeypatch):
        maps = tmp_path / "maps"
        maps.write_text(
            "7f0000000000-7f0000001000 r-xp 00000000 00:00 0 /usr/lib/libc.so.6\n"
        )
        monkeypatch.setattr(blas, "MAPS", str(maps))
        assert blas_threads() == {}
        assert limit_blas_threads(1) == {}
        monkeypatch.setattr(blas, "MAPS", str(tmp_path / "missing"))
        assert limit_blas_threads(1) == {}

    def test_budget_shares_out_the_usable_cores(self):
        cores = len(os.sched_getaffinity(0))
        assert blas_budget(1) == cores
        assert blas_budget(cores) == 1
        assert blas_budget(cores + 1) == 1


@pytest.mark.parametrize("start_method", START_METHODS)
class TestPoolWorkers:
    @pytest.mark.parametrize("workers", (2, 4))
    def test_each_worker_acks_its_budget_and_parent_is_untouched(
        self, state, start_method, workers
    ):
        _require_method(start_method)
        parent = blas_threads()
        pool = PersistentWorkerPool(workers, start_method=start_method)
        try:
            pool.run_tasks(state, chunk_tasks(state), timeout=RUN_TIMEOUT)
            assert blas_threads() == parent
        finally:
            pool.shutdown()
        assert blas_threads() == parent
        # A worker never raises a count the environment set lower.
        expected = min(blas_budget(workers), min(parent.values()))
        assert pool.blas_threads_per_worker == blas_budget(workers)
        assert pool.worker_blas_threads == [expected] * workers

    def test_pickle_transport_initializer_applies_the_budget(self, start_method):
        _require_method(start_method)
        context = multiprocessing.get_context(start_method)
        with context.Pool(1, initializer=initialize_worker, initargs=(None, 1)) as pool:
            counts = pool.apply(blas_threads)
        assert set(counts) == set(blas_threads())
        assert set(counts.values()) == {1}


def test_lower_environment_count_is_kept():
    found = run_python(
        "import json, os\n"
        "from repro.engine import PersistentWorkerPool, build_state, plan_chunks\n"
        "from repro.engine.blas import limit_blas_threads\n"
        "from repro.datasets import load\n"
        "from repro.models import build_model\n"
        "graph = load('codex-s-lite').graph\n"
        "model = build_model('distmult', graph.num_entities, graph.num_relations,"
        " dim=4, seed=0)\n"
        "state = build_state(model, graph, 'test')\n"
        "tasks = plan_chunks([((g.relation, g.side), g.queries)"
        " for g in state.groups], 256)\n"
        "capped = limit_blas_threads(os.cpu_count() + 1)\n"
        "pool = PersistentWorkerPool(1)\n"
        "pool.run_tasks(state, tasks, timeout=60)\n"
        "pool.shutdown()\n"
        "print(json.dumps({'capped': capped, 'worker': pool.worker_blas_threads[0],"
        " 'budget': pool.blas_threads_per_worker}))\n",
        OPENBLAS_NUM_THREADS="1",
    )
    assert set(found["capped"].values()) == {1}
    assert found["worker"] == 1
    assert found["budget"] == len(os.sched_getaffinity(0))
