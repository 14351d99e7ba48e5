"""In-memory span recording around the program's layer boundaries.

The traced run wraps public entry points of each layer of ``repro`` —
``kg``, ``recommenders``, ``core``, ``engine``, ``models`` and ``serve`` —
from the benchmark's own files, so nothing under ``src/`` changes.  A
wrapper is installed at the attribute the *caller* looks up: a function
imported by name into another module is wrapped in that module, a
method on the class that owns it.

Each span is ``(id, parent, name, start, end, thread)``; parents come
from a per-thread stack, so spans on the serve scheduler thread start a
tree of their own.  Spans stay in memory until :meth:`Recorder.dump`.
Wrappers installed before a ``fork`` record nothing in the child: worker
numbers come from the pool's merged telemetry counters instead.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

#: The layers whose spans count as accounted wall time.
LAYERS = ("kg", "recommenders", "core", "engine", "models", "serve")


class Recorder:
    """Spans and counts collected by installed wrappers."""

    def __init__(self, score_width: int = 0) -> None:
        self.spans: list[tuple[int, int | None, str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.flops = 0.0
        #: Real coordinates per entity embedding, for the FLOP count.
        self.score_width = score_width
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, threading.get_ident()))

    def span_wrapper(self, name: str, function, on_result=None):
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if os.getpid() != recorder._pid:
                return function(*args, **kwargs)
            with recorder.span(name):
                result = function(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def count_wrapper(self, name: str, function):
        counts = self.counts

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    def count_run(self, run) -> None:
        self.counts["engine.queries"] += run.num_queries
        self.counts["engine.entities_scored"] += run.num_scored

    def count_flops(self, scores) -> None:
        # One multiply-add per real coordinate per (query, candidate).
        self.flops += 2.0 * scores.size * self.score_width

    # ------------------------------------------------------------------
    def install(self, owner, attribute: str, make_wrapper) -> None:
        """Replace ``owner.attribute`` by ``make_wrapper(current value)``."""
        original = vars(owner).get(attribute)
        setattr(owner, attribute, make_wrapper(getattr(owner, attribute)))
        self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._installed.clear()

    # ------------------------------------------------------------------
    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "spans": [list(span) for span in self.spans],
                    "counts": dict(self.counts),
                    "flops": self.flops,
                }
            )
        )

    @staticmethod
    def load(path: Path) -> "Recorder":
        data = json.loads(path.read_text())
        recorder = Recorder()
        recorder.spans = [tuple(span) for span in data["spans"]]
        recorder.counts.update(data["counts"])
        recorder.flops = data["flops"]
        return recorder


def root_span(recorder: Recorder | None, name: str):
    """A benchmark-level span when tracing, nothing otherwise."""
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


def install_layer_wrappers(recorder: Recorder) -> None:
    """Wrap the layer boundaries the per-layer metrics are built from."""
    import repro.core.protocol as protocol
    import repro.core.ranking as ranking
    import repro.engine.engine as engine
    import repro.engine.worker as worker
    import repro.models.training as training
    import repro.serve.http as http
    import repro.serve.registry as registry
    import repro.serve.service as service
    from repro.engine.pool import PersistentWorkerPool
    from repro.kg.graph import KnowledgeGraph
    from repro.models.complex_ import ComplEx
    from repro.models.optim import Adam
    from repro.recommenders.base import RelationRecommender
    from repro.serve.scheduler import PendingResult

    def spans(name, on_result=None):
        return lambda function: recorder.span_wrapper(name, function, on_result)

    # kg: the filter-index build and the per-query known-answer lookup.
    recorder.install(KnowledgeGraph, "_build_filter_index", spans("kg.filter_index"))
    recorder.install(
        KnowledgeGraph, "true_answers",
        lambda function: recorder.count_wrapper("kg.true_answers_calls", function),
    )
    # recommenders
    recorder.install(RelationRecommender, "fit", spans("recommenders.fit"))
    # core: preparation stages and the two evaluation entry points.
    recorder.install(protocol, "build_static_candidates", spans("core.candidates"))
    recorder.install(registry, "build_static_candidates", spans("core.candidates"))
    recorder.install(protocol, "build_pools", spans("core.pools"))
    recorder.install(protocol.EvaluationProtocol, "prepare", spans("core.prepare"))
    recorder.install(protocol.EvaluationProtocol, "evaluate", spans("core.evaluate"))
    recorder.install(ranking, "evaluate_full", spans("core.evaluate_full"))
    # engine
    recorder.install(engine.EvaluationEngine, "run", spans("engine.run", recorder.count_run))
    recorder.install(engine, "build_state", spans("engine.build_state"))
    recorder.install(engine, "score_chunk", spans("engine.score_chunk"))
    recorder.install(PersistentWorkerPool, "run_tasks", spans("engine.pool_run"))
    recorder.install(PersistentWorkerPool, "ensure_state", spans("engine.publish"))
    for module in (worker, service):
        recorder.install(module, "collect_known_answers", spans("engine.known_answers"))
        recorder.install(module, "chunk_filtered_ranks", spans("engine.rank_count"))
    # models: scoring and the three training stages.
    recorder.install(ComplEx, "score_candidates_batch", spans("models.score", recorder.count_flops))
    recorder.install(training.UniformNegativeSampler, "corrupt", spans("models.train.sample"))
    recorder.install(training, "fused_step", spans("models.train.kernel"))
    recorder.install(Adam, "step_rows", spans("models.train.optim"))
    recorder.install(training.Trainer, "fit", spans("models.fit"))
    # serve
    recorder.install(http._Handler, "do_POST", spans("serve.http"))
    recorder.install(service.LinkPredictionService, "rank", spans("serve.service"))
    recorder.install(service.LinkPredictionService, "score", spans("serve.service"))
    recorder.install(PendingResult, "result", spans("serve.wait"))
    recorder.install(service.LinkPredictionService, "_score_batch", spans("serve.score"))


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans) -> dict[int, float]:
    """Duration minus the part of it that child spans cover, per span id."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - _union_length(children.get(span_id, []))
        for span_id, _, _, start, end, _ in spans
    }


def summarize(recorder: Recorder) -> dict:
    """Totals per span name, self time per name and per layer."""
    own = self_times(recorder.spans)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_total: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for span_id, _, name, start, end, _ in recorder.spans:
        total[name] += end - start
        calls[name] += 1
        self_total[name] += own[span_id]
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            layer_self[layer] += own[span_id]
    return {
        "total": dict(total),
        "calls": dict(calls),
        "self": dict(self_total),
        "layer_self": dict(layer_self),
    }


def layer_coverage(recorder: Recorder, root_names: set[str]) -> tuple[float, float]:
    """``(wall, covered)`` of the benchmark's root spans.

    ``covered`` is the part of each root span that the layer spans
    directly beneath it cover, less the benchmark's own spans nested
    inside those (a reference check run from a training callback); the
    remainder is time the trace leaves unaccounted.  Layer self times
    therefore add up to ``covered``: the benchmark's nested spans count
    toward neither.
    """
    parents = {span_id: parent for span_id, parent, *_ in recorder.spans}
    names = {span_id: name for span_id, _, name, *_ in recorder.spans}

    def root_of(span_id: int) -> int | None:
        while span_id is not None and names[span_id] not in root_names:
            span_id = parents[span_id]
        return span_id

    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    foreign: dict[int, float] = defaultdict(float)
    for span_id, parent, name, start, end, _ in recorder.spans:
        if parent is None or name in root_names:
            continue
        if name.split(".", 1)[0] in LAYERS:
            if names[parent] in root_names:
                children[parent].append((start, end))
        elif names[parent].split(".", 1)[0] in LAYERS:
            root = root_of(parent)
            if root is not None:
                foreign[root] += end - start
    wall = covered = 0.0
    for span_id, _, name, start, end, _ in recorder.spans:
        if name in root_names:
            wall += end - start
            covered += _union_length(children.get(span_id, [])) - foreign[span_id]
    return wall, covered
