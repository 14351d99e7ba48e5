"""Shared fixtures: hand-built toy graphs and cached zoo datasets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import SyntheticConfig, generate, load
from repro.kg import KnowledgeGraph, TripleSet, Vocabulary, build_graph
from repro.kg.typing import build_type_store


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def lock_sanitizer():
    """Lock-order/race sanitizer over the process-global obs state.

    Wraps the global :class:`~repro.obs.metrics.MetricsRegistry` and
    :class:`~repro.obs.trace.Tracer` locks for the duration of the
    test: any lock-order inversion or mutation of their shared dicts
    without the owning lock fails the test at teardown.  The test body
    receives the :class:`~repro.analysis.LockSanitizer` and may call
    ``assert_clean()`` earlier, or inspect ``violations`` directly.
    """
    from repro.analysis import LockSanitizer, sanitize_registry, sanitize_tracer
    from repro.obs import get_registry, get_tracer

    sanitizer = LockSanitizer()
    registry_handle = sanitize_registry(get_registry(), sanitizer)
    tracer_handle = sanitize_tracer(get_tracer(), sanitizer)
    try:
        yield sanitizer
        sanitizer.assert_clean()
    finally:
        tracer_handle.restore()
        registry_handle.restore()


@pytest.fixture
def tiny_graph() -> KnowledgeGraph:
    """A 6-entity, 3-relation graph with train/valid/test splits.

    Laid out so every query has hand-checkable filtered answers:

    * ``likes``: e0->e1, e0->e2, e1->e2 (train), e0->e3 (test)
    * ``knows``: e3->e4 (train), e4->e5 (valid)
    * ``made``:  e5->e0 (train)
    """
    entities = Vocabulary([f"e{i}" for i in range(6)])
    relations = Vocabulary(["likes", "knows", "made"])
    return KnowledgeGraph(
        entities=entities,
        relations=relations,
        train=TripleSet([(0, 0, 1), (0, 0, 2), (1, 0, 2), (3, 1, 4), (5, 2, 0)]),
        valid=TripleSet([(4, 1, 5)]),
        test=TripleSet([(0, 0, 3)]),
        name="tiny",
    )


@pytest.fixture
def gates_graph() -> KnowledgeGraph:
    """The paper's Figure 2 toy KG (Youn & Tagkopoulos example).

    Entities: Melinda French, Bill Gates, Jennifer Gates, Washington,
    Microsoft, United States; relations as in the figure.  All triples go
    into train so recommender tests see the full structure.
    """
    triples = [
        ("MelindaFrench", "divorcedWith", "BillGates"),
        ("BillGates", "divorcedWith", "MelindaFrench"),
        ("BillGates", "founderOf", "Microsoft"),
        ("BillGates", "bornIn", "Washington"),
        ("JenniferGates", "daughterOf", "MelindaFrench"),
        ("JenniferGates", "daughterOf", "BillGates"),
        ("JenniferGates", "bornIn", "Washington"),
        ("Microsoft", "locatedIn", "UnitedStates"),
        ("Washington", "locatedIn", "UnitedStates"),
    ]
    return build_graph({"train": triples}, name="gates-toy")


@pytest.fixture
def typed_tiny_graph(tiny_graph):
    """The tiny graph plus a type store: persons e0-e4, artifact e5."""
    assignments = {
        0: ["Person"],
        1: ["Person"],
        2: ["Person"],
        3: ["Person"],
        4: ["Person"],
        5: ["Artifact"],
    }
    return tiny_graph, build_type_store(assignments)


@pytest.fixture(scope="session")
def small_dataset():
    """A small deterministic synthetic dataset (not from the zoo cache)."""
    config = SyntheticConfig(
        num_entities=300,
        num_relations=10,
        num_types=6,
        num_triples=2500,
        num_communities=2,
        noise_triples=4,
        seed=42,
        name="small-test",
    )
    return generate(config)


@pytest.fixture(scope="session")
def codex_s():
    """The smallest zoo dataset (cached across the whole test session)."""
    return load("codex-s-lite")


def _set_scan_answers(triples, anchor: int, relation: int, side: str) -> list[int]:
    """Known true answers of one query by a plain scan over raw triples."""
    answers = set()
    for h, r, t in triples:
        h, r, t = int(h), int(r), int(t)
        if r == relation and (t if side == "head" else h) == anchor:
            answers.add(h if side == "head" else t)
    return sorted(answers)


@pytest.fixture(scope="session")
def set_scan_answers():
    """The naive filter-index reference: ``(triples, anchor, relation,
    side) -> sorted known answers``, deliberately loop-only so every fast
    index path can be checked against it."""
    return _set_scan_answers
