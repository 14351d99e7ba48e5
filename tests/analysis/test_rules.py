"""Mutation tests: every rule fires on a known-bad snippet and stays
quiet on its known-good twin.

Each test builds a miniature package in ``tmp_path`` and runs the real
engine over it, so what is proven live is the full pipeline — file
discovery, parsing, the rule, noqa filtering, reporting — not a rule
method called in isolation.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisConfig,
    LayeringContract,
    run_analysis,
)


def make_package(root: Path, files: dict[str, str], package: str = "pkg") -> Path:
    pkg = root / package
    pkg.mkdir(parents=True, exist_ok=True)
    init = pkg / "__init__.py"
    if not init.exists():
        init.write_text("")
    for name, source in files.items():
        target = pkg / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return pkg


def violations_of(root: Path, code: str, config: AnalysisConfig | None = None):
    report = run_analysis([root], root, select=[code], config=config)
    return [v for v in report.violations if v.rule == code]


# ----------------------------------------------------------------------
# R001 — unseeded RNG
# ----------------------------------------------------------------------
class TestR001:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import numpy as np\nnp.random.shuffle([1, 2])\n",
            "import numpy as np\nnp.random.seed(0)\n",
            "import random\nrandom.choice([1, 2])\n",
            "import numpy as np\nrng = np.random.default_rng()\n",
            "from numpy import random as npr\nnpr.randint(3)\n",
            "from numpy.random import shuffle\nshuffle([1, 2])\n",
        ],
    )
    def test_fires_on_global_rng(self, tmp_path, snippet):
        make_package(tmp_path, {"bad.py": snippet})
        found = violations_of(tmp_path, "R001")
        assert len(found) == 1
        assert found[0].path.endswith("bad.py")
        assert found[0].line > 0

    @pytest.mark.parametrize(
        "snippet",
        [
            "import numpy as np\nrng = np.random.default_rng(42)\n",
            "def f(rng):\n    return rng.normal()\n",
            # A *different* module also called random is not stdlib random.
            "from mylib import random\nrandom.choice([1])\n",
            "import numpy as np\nnp.sort([3, 1])\n",
        ],
    )
    def test_quiet_on_threaded_generator(self, tmp_path, snippet):
        make_package(tmp_path, {"good.py": snippet})
        assert violations_of(tmp_path, "R001") == []

    def test_sanctioned_module_exempt(self, tmp_path):
        make_package(tmp_path, {"seeding.py": "import random\nrandom.seed(0)\n"})
        config = AnalysisConfig(rng_sanctioned=("pkg.seeding",))
        assert violations_of(tmp_path, "R001", config) == []


# ----------------------------------------------------------------------
# R002 — shm create/unlink pairing
# ----------------------------------------------------------------------
class TestR002:
    def test_fires_on_unpaired_create(self, tmp_path):
        make_package(
            tmp_path,
            {
                "bad.py": """
                from multiprocessing.shared_memory import SharedMemory

                def leak():
                    shm = SharedMemory(create=True, size=64)
                    return shm.name
                """
            },
        )
        found = violations_of(tmp_path, "R002")
        assert len(found) == 1

    def test_quiet_with_try_finally_cleanup(self, tmp_path):
        make_package(
            tmp_path,
            {
                "good.py": """
                from multiprocessing.shared_memory import SharedMemory

                def careful():
                    shm = SharedMemory(create=True, size=64)
                    try:
                        return shm.name
                    finally:
                        shm.close()
                        shm.unlink()
                """
            },
        )
        assert violations_of(tmp_path, "R002") == []

    def test_quiet_with_except_cleanup(self, tmp_path):
        make_package(
            tmp_path,
            {
                "good.py": """
                def publish(arena_cls):
                    arena = ShmArena("x", 64)
                    try:
                        arena.put("k", b"v")
                    except BaseException:
                        arena.close()
                        raise
                    return arena
                """
            },
        )
        assert violations_of(tmp_path, "R002") == []

    def test_quiet_inside_owning_class(self, tmp_path):
        make_package(
            tmp_path,
            {
                "good.py": """
                from multiprocessing.shared_memory import SharedMemory

                class Arena:
                    def put(self):
                        self._segments.append(SharedMemory(create=True, size=8))

                    def close(self):
                        for segment in self._segments:
                            segment.unlink()
                """
            },
        )
        assert violations_of(tmp_path, "R002") == []

    def test_attach_without_create_is_fine(self, tmp_path):
        make_package(
            tmp_path,
            {
                "good.py": """
                from multiprocessing.shared_memory import SharedMemory

                def attach(name):
                    return SharedMemory(name=name)
                """
            },
        )
        assert violations_of(tmp_path, "R002") == []


# ----------------------------------------------------------------------
# R003 — lock discipline
# ----------------------------------------------------------------------
class TestR003:
    def test_fires_on_unguarded_mutation(self, tmp_path):
        make_package(
            tmp_path,
            {
                "bad.py": """
                import threading

                class Registry:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._metrics = {}

                    def add(self, name, metric):
                        with self._lock:
                            self._metrics[name] = metric

                    def sneaky(self, name):
                        self._metrics.pop(name, None)
                """
            },
        )
        found = violations_of(tmp_path, "R003")
        assert len(found) == 1
        assert "sneaky" in found[0].message

    def test_quiet_when_always_locked(self, tmp_path):
        make_package(
            tmp_path,
            {
                "good.py": """
                import threading

                class Registry:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._metrics = {}

                    def add(self, name, metric):
                        with self._lock:
                            self._metrics[name] = metric

                    def remove(self, name):
                        with self._lock:
                            self._metrics.pop(name, None)
                """
            },
        )
        assert violations_of(tmp_path, "R003") == []

    def test_locked_suffix_methods_exempt(self, tmp_path):
        # Chromium-style caller-holds-lock naming: _foo_locked is
        # only called with the lock held; the callers are checked.
        make_package(
            tmp_path,
            {
                "good.py": """
                import threading

                class Registry:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._metrics = {}

                    def add(self, name, metric):
                        with self._lock:
                            self._add_locked(name, metric)

                    def _add_locked(self, name, metric):
                        self._metrics[name] = metric
                """
            },
        )
        assert violations_of(tmp_path, "R003") == []

    def test_unlocked_classes_ignored(self, tmp_path):
        make_package(
            tmp_path,
            {
                "good.py": """
                class Plain:
                    def __init__(self):
                        self._items = {}

                    def add(self, key, value):
                        self._items[key] = value
                """
            },
        )
        assert violations_of(tmp_path, "R003") == []


# ----------------------------------------------------------------------
# R004 — import layering
# ----------------------------------------------------------------------
def _layering_config() -> AnalysisConfig:
    return AnalysisConfig(
        layering=(
            LayeringContract(root="pkg.worker", forbidden=("pkg.serve",)),
        )
    )


class TestR004:
    def test_fires_on_direct_forbidden_import(self, tmp_path):
        make_package(
            tmp_path,
            {
                "worker.py": "import pkg.serve\n",
                "serve.py": "x = 1\n",
            },
        )
        found = violations_of(tmp_path, "R004", _layering_config())
        assert len(found) == 1
        assert found[0].path.endswith("worker.py")

    def test_fires_on_transitive_forbidden_import(self, tmp_path):
        make_package(
            tmp_path,
            {
                "worker.py": "from pkg import helper\n",
                "helper.py": "from pkg.serve import handler\n",
                "serve.py": "def handler():\n    return None\n",
            },
        )
        found = violations_of(tmp_path, "R004", _layering_config())
        assert len(found) == 1
        # The importer to fix is the intermediate module.
        assert found[0].path.endswith("helper.py")

    def test_quiet_on_clean_closure(self, tmp_path):
        make_package(
            tmp_path,
            {
                "worker.py": "from pkg import helper\n",
                "helper.py": "import json\n",
                "serve.py": "import pkg.worker\n",  # serve may import worker
            },
        )
        assert violations_of(tmp_path, "R004", _layering_config()) == []

    def test_real_worker_contract_holds(self):
        # The shipped contract over the real tree: worker must not
        # reach serve/cli/obs.top.  Guarded here independently of the
        # repo-wide cleanliness test.
        src = Path(__file__).resolve().parents[2] / "src"
        report = run_analysis([src], src.parent, select=["R004"])
        assert [str(v) for v in report.violations] == []


# ----------------------------------------------------------------------
# R005 — hot-path determinism
# ----------------------------------------------------------------------
def _hot_config() -> AnalysisConfig:
    return AnalysisConfig(hot_modules=("pkg.kernel",))


class TestR005:
    def test_fires_on_wall_clock(self, tmp_path):
        make_package(
            tmp_path,
            {"kernel.py": "import time\n\ndef f():\n    return time.time()\n"},
        )
        found = violations_of(tmp_path, "R005", _hot_config())
        assert len(found) == 1
        assert "wall-clock" in found[0].message

    def test_fires_on_set_iteration(self, tmp_path):
        make_package(
            tmp_path,
            {
                "kernel.py": (
                    "def f(items):\n"
                    "    for x in set(items):\n"
                    "        yield x\n"
                )
            },
        )
        found = violations_of(tmp_path, "R005", _hot_config())
        assert len(found) == 1
        assert "hash-seed" in found[0].message

    def test_quiet_on_monotonic_and_sorted(self, tmp_path):
        make_package(
            tmp_path,
            {
                "kernel.py": (
                    "import time\n\n"
                    "def f(items):\n"
                    "    start = time.perf_counter()\n"
                    "    for x in sorted(set(items)):\n"
                    "        yield x\n"
                )
            },
        )
        assert violations_of(tmp_path, "R005", _hot_config()) == []

    def test_cold_modules_unchecked(self, tmp_path):
        make_package(
            tmp_path,
            {"cold.py": "import time\n\ndef f():\n    return time.time()\n"},
        )
        assert violations_of(tmp_path, "R005", _hot_config()) == []


# ----------------------------------------------------------------------
# R006 — swallowed exceptions
# ----------------------------------------------------------------------
class TestR006:
    def test_fires_on_bare_except(self, tmp_path):
        make_package(
            tmp_path,
            {"bad.py": "try:\n    pass\nexcept:\n    pass\n"},
        )
        found = violations_of(tmp_path, "R006")
        assert len(found) == 1
        assert "bare except" in found[0].message

    def test_fires_on_silent_broad_handler(self, tmp_path):
        make_package(
            tmp_path,
            {"bad.py": "try:\n    pass\nexcept Exception:\n    x = 1\n"},
        )
        assert len(violations_of(tmp_path, "R006")) == 1

    def test_quiet_when_reraised(self, tmp_path):
        make_package(
            tmp_path,
            {
                "good.py": (
                    "try:\n"
                    "    pass\n"
                    "except BaseException:\n"
                    "    raise\n"
                )
            },
        )
        assert violations_of(tmp_path, "R006") == []

    def test_quiet_when_reported(self, tmp_path):
        # The worker fault model: catch everything, ship it upstream.
        make_package(
            tmp_path,
            {
                "good.py": (
                    "def run(queue):\n"
                    "    try:\n"
                    "        pass\n"
                    "    except BaseException as error:\n"
                    "        queue.put(repr(error))\n"
                )
            },
        )
        assert violations_of(tmp_path, "R006") == []

    def test_quiet_on_narrow_pass(self, tmp_path):
        make_package(
            tmp_path,
            {
                "good.py": (
                    "try:\n"
                    "    pass\n"
                    "except (ValueError, OSError):\n"
                    "    pass\n"
                )
            },
        )
        assert violations_of(tmp_path, "R006") == []


# ----------------------------------------------------------------------
# R007 — metrics/docs parity
# ----------------------------------------------------------------------
def _docs_config() -> AnalysisConfig:
    return AnalysisConfig(metrics_docs="docs/metrics.md")


def _write_docs(root: Path, body: str) -> None:
    docs = root / "docs"
    docs.mkdir(exist_ok=True)
    (docs / "metrics.md").write_text(body)


class TestR007:
    def test_fires_on_undocumented_metric(self, tmp_path):
        make_package(
            tmp_path,
            {"m.py": 'def f(reg):\n    reg.counter("repro_new_total").inc()\n'},
        )
        _write_docs(tmp_path, "| `repro_old_total` | counter |\n")
        found = violations_of(tmp_path, "R007", _docs_config())
        messages = "\n".join(v.message for v in found)
        assert "repro_new_total" in messages  # registered, undocumented
        assert "repro_old_total" in messages  # documented, unregistered
        assert len(found) == 2

    def test_quiet_when_in_sync(self, tmp_path):
        make_package(
            tmp_path,
            {
                "m.py": (
                    'COUNTER_HELP = {"repro_worker_total": "help"}\n'
                    'STATE_GAUGE = "repro_state_bytes"\n'
                    'def f(reg):\n'
                    '    reg.counter("repro_new_total").inc()\n'
                )
            },
        )
        _write_docs(
            tmp_path,
            "| `repro_new_total` | counter |\n"
            "| `repro_worker_total` | counter |\n"
            "| `repro_state_bytes` | gauge |\n",
        )
        assert violations_of(tmp_path, "R007", _docs_config()) == []

    def test_prefix_tokens_and_paths_ignored(self, tmp_path):
        make_package(
            tmp_path,
            {"m.py": 'def f(reg):\n    reg.counter("repro_new_total").inc()\n'},
        )
        _write_docs(
            tmp_path,
            "The `repro_new_total` series; all `repro_engine_` families\n"
            "live in `.repro_store` directories.\n",
        )
        assert violations_of(tmp_path, "R007", _docs_config()) == []


# ----------------------------------------------------------------------
# R008 — exported symbols need docstrings
# ----------------------------------------------------------------------
class TestR008:
    def test_fires_on_undocumented_export(self, tmp_path):
        make_package(
            tmp_path,
            {
                "__init__.py": (
                    "from pkg.impl import helper\n"
                    '__all__ = ["helper"]\n'
                ),
                "impl.py": "def helper():\n    return 1\n",
            },
        )
        found = violations_of(tmp_path, "R008")
        assert len(found) == 1
        assert found[0].path.endswith("impl.py")

    def test_quiet_with_docstring(self, tmp_path):
        make_package(
            tmp_path,
            {
                "__init__.py": (
                    "from pkg.impl import helper\n"
                    '__all__ = ["helper"]\n'
                ),
                "impl.py": 'def helper():\n    """Help."""\n    return 1\n',
            },
        )
        assert violations_of(tmp_path, "R008") == []

    def test_unresolvable_exports_skipped(self, tmp_path):
        # Constants and third-party re-exports are out of scope.
        make_package(
            tmp_path,
            {
                "__init__.py": (
                    "from json import dumps\n"
                    "VERSION = '1'\n"
                    '__all__ = ["dumps", "VERSION"]\n'
                ),
            },
        )
        assert violations_of(tmp_path, "R008") == []


# ----------------------------------------------------------------------
# R009 — worker entry points apply the BLAS budget
# ----------------------------------------------------------------------
def _entry_config() -> AnalysisConfig:
    return AnalysisConfig(worker_entry_packages=("pkg",))


_CAPPED_WORKER = """
from pkg.blas import limit_blas_threads

def worker_main(queue, budget):
    limit_blas_threads(budget)
    queue.get()
"""


class TestR009:
    def test_fires_on_uncapped_process_target(self, tmp_path):
        make_package(
            tmp_path,
            {
                "pool.py": """
                import multiprocessing

                def worker_main(queue):
                    queue.get()

                def start(queue):
                    multiprocessing.Process(target=worker_main, args=(queue,)).start()
                """
            },
        )
        found = violations_of(tmp_path, "R009", _entry_config())
        assert len(found) == 1
        assert "worker_main does not call limit_blas_threads" in found[0].message

    def test_fires_on_uncapped_imported_pool_initializer(self, tmp_path):
        make_package(
            tmp_path,
            {
                "worker.py": "def initialize(state):\n    return state\n",
                "engine.py": """
                import multiprocessing
                from pkg.worker import initialize

                def run(state):
                    context = multiprocessing.get_context("spawn")
                    with context.Pool(2, initialize, (state,)) as pool:
                        return pool
                """,
            },
        )
        found = violations_of(tmp_path, "R009", _entry_config())
        assert len(found) == 1
        assert found[0].path.endswith("engine.py")

    def test_fires_on_unresolvable_entry_point(self, tmp_path):
        make_package(
            tmp_path,
            {
                "pool.py": (
                    "import multiprocessing\n"
                    "def start(q):\n"
                    "    multiprocessing.Process(target=lambda: q.get()).start()\n"
                )
            },
        )
        found = violations_of(tmp_path, "R009", _entry_config())
        assert len(found) == 1
        assert "does not resolve" in found[0].message

    def test_quiet_when_entry_points_cap(self, tmp_path):
        make_package(
            tmp_path,
            {
                "blas.py": "def limit_blas_threads(n):\n    return {}\n",
                "worker.py": _CAPPED_WORKER,
                "pool.py": """
                import multiprocessing

                def start(queue):
                    from .worker import worker_main

                    multiprocessing.Process(
                        target=worker_main, args=(queue, 1)
                    ).start()
                    with multiprocessing.Pool(initializer=worker_main) as pool:
                        return pool
                """,
            },
        )
        assert violations_of(tmp_path, "R009", _entry_config()) == []

    def test_other_packages_unchecked(self, tmp_path):
        make_package(
            tmp_path,
            {
                "pool.py": (
                    "import multiprocessing\n"
                    "def work():\n    return 1\n"
                    "multiprocessing.Process(target=work)\n"
                )
            },
        )
        config = AnalysisConfig(worker_entry_packages=("elsewhere",))
        assert violations_of(tmp_path, "R009", config) == []

    def test_real_engine_entry_points_cap(self):
        src = Path(__file__).resolve().parents[2] / "src"
        report = run_analysis([src], src.parent, select=["R009"])
        assert [str(v) for v in report.violations] == []


# ----------------------------------------------------------------------
# Engine mechanics: noqa, select/ignore, syntax errors
# ----------------------------------------------------------------------
class TestEngine:
    def test_noqa_suppresses_named_rule(self, tmp_path):
        make_package(
            tmp_path,
            {
                "bad.py": (
                    "import random\n"
                    "random.random()  # repro: noqa[R001]\n"
                )
            },
        )
        report = run_analysis([tmp_path], tmp_path, select=["R001"])
        assert report.violations == []
        assert report.suppressed == 1

    def test_noqa_other_rule_does_not_suppress(self, tmp_path):
        make_package(
            tmp_path,
            {
                "bad.py": (
                    "import random\n"
                    "random.random()  # repro: noqa[R006]\n"
                )
            },
        )
        report = run_analysis([tmp_path], tmp_path, select=["R001"])
        assert len(report.violations) == 1

    def test_bare_noqa_suppresses_everything(self, tmp_path):
        make_package(
            tmp_path,
            {"bad.py": "import random\nrandom.random()  # repro: noqa\n"},
        )
        report = run_analysis([tmp_path], tmp_path)
        assert report.violations == []
        assert report.suppressed == 1

    def test_ignore_removes_rule(self, tmp_path):
        make_package(
            tmp_path,
            {"bad.py": "import random\nrandom.random()\n"},
        )
        report = run_analysis([tmp_path], tmp_path, ignore=["R001"])
        assert report.violations == []

    def test_syntax_error_reported_not_crashing(self, tmp_path):
        make_package(tmp_path, {"broken.py": "def f(:\n"})
        report = run_analysis([tmp_path], tmp_path)
        codes = {v.rule for v in report.violations}
        assert codes == {"E000"}
