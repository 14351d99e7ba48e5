"""Unit tests for the shared-memory plane: arena, publish/attach, fingerprint."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import build_state, plan_chunks, score_chunk
from repro.engine.shm import (
    ShmArena,
    attach_array,
    attach_state,
    publish_state,
    state_fingerprint,
)
from repro.models import build_model


@pytest.fixture
def tiny_state(tiny_graph):
    model = build_model(
        "distmult", tiny_graph.num_entities, tiny_graph.num_relations, dim=4, seed=0
    )
    return build_state(model, tiny_graph, "test")


class TestShmArena:
    def test_put_and_view_round_trip(self):
        arena = ShmArena(tag="repro_t")
        try:
            data = np.arange(12, dtype=np.float64).reshape(3, 4)
            view = arena.put("x", data)
            np.testing.assert_array_equal(view, data)
            assert arena.view("x") is view
            assert arena.nbytes == data.nbytes
        finally:
            arena.close()

    def test_attach_sees_parent_writes(self):
        arena = ShmArena(tag="repro_t")
        try:
            view = arena.put("x", np.zeros(8))
            attached, segment = attach_array(arena.specs["x"])
            view[3] = 42.0
            assert attached[3] == 42.0  # same bytes, not a copy
            attached = None  # release the buffer before closing
            segment.close()
        finally:
            arena.close()

    def test_zero_size_arrays_are_representable(self):
        arena = ShmArena(tag="repro_t")
        try:
            view = arena.put("empty", np.empty(0, dtype=np.int64))
            assert view.size == 0
            array, segment = attach_array(arena.specs["empty"])
            assert array.size == 0 and array.dtype == np.int64
            array = None
            segment.close()
        finally:
            arena.close()

    def test_close_is_idempotent_and_unlinks(self):
        arena = ShmArena(tag="repro_t")
        spec = arena.put("x", np.ones(4)) is not None and arena.specs["x"]
        arena.close()
        arena.close()  # second close is a no-op
        with pytest.raises(FileNotFoundError):
            attach_array(spec)

    def test_duplicate_names_rejected(self):
        arena = ShmArena(tag="repro_t")
        try:
            arena.put("x", np.ones(2))
            with pytest.raises(ValueError, match="duplicate"):
                arena.put("x", np.ones(2))
        finally:
            arena.close()


class TestPublishAttach:
    def test_attached_state_scores_identically(self, tiny_state):
        published = publish_state(tiny_state)
        attached = None
        try:
            attached = attach_state(published.manifest)
            tasks = plan_chunks(
                [((g.relation, g.side), g.queries) for g in tiny_state.groups], 128
            )
            for task in tasks:
                direct, n1 = score_chunk(tiny_state, task)
                via_shm, n2 = score_chunk(attached.state, task)
                np.testing.assert_array_equal(direct, via_shm)
                assert n1 == n2
        finally:
            if attached is not None:
                attached.close()
            published.close()

    def test_manifest_counts_queries_and_groups(self, tiny_state):
        published = publish_state(tiny_state)
        try:
            manifest = published.manifest
            assert manifest.num_queries == sum(
                len(g.queries) for g in tiny_state.groups
            )
            assert [(g.relation, g.side) for g in tiny_state.groups] == [
                (relation, side) for relation, side, _ in manifest.groups
            ]
            assert published.result_view.shape == (manifest.num_queries,)
        finally:
            published.close()

    def test_registry_models_travel_as_arrays_not_pickle(self, tiny_state):
        published = publish_state(tiny_state)
        try:
            assert published.manifest.model_pickle is None
            assert published.manifest.model_spec is not None
            param_specs = [
                name for name in published.manifest.arrays if name.startswith("param_")
            ]
            assert param_specs  # every embedding table went to shared memory
        finally:
            published.close()


class TestStateFingerprint:
    def test_in_place_parameter_mutation_changes_fingerprint(self, tiny_state):
        before = state_fingerprint(tiny_state)
        entity_table = next(iter(tiny_state.model.parameter_arrays().values()))
        entity_table += 0.25  # what a training step does between evals
        after = state_fingerprint(tiny_state)
        assert before != after

    def test_same_content_same_fingerprint(self, tiny_state):
        assert state_fingerprint(tiny_state) == state_fingerprint(tiny_state)

    def test_different_split_different_fingerprint(self, tiny_graph):
        model = build_model(
            "distmult", tiny_graph.num_entities, tiny_graph.num_relations, dim=4
        )
        test_state = build_state(model, tiny_graph, "test")
        valid_state = build_state(model, tiny_graph, "valid")
        assert state_fingerprint(test_state) != state_fingerprint(valid_state)


class TestFilterIndexPublication:
    """Republishing fresh checkpoints reuses the graph's one cached index."""

    def test_three_checkpoints_do_no_filter_index_work(self, tiny_graph, monkeypatch):
        from repro.engine import PersistentWorkerPool
        from repro.kg import KnowledgeGraph

        builds = []
        original = KnowledgeGraph._build_filter_index

        def counting_build(graph):
            builds.append(graph)
            return original(graph)

        monkeypatch.setattr(KnowledgeGraph, "_build_filter_index", counting_build)
        model = build_model(
            "distmult", tiny_graph.num_entities, tiny_graph.num_relations, dim=4, seed=0
        )
        expected = tiny_graph.filter_index.arrays()
        pool = PersistentWorkerPool(1)
        try:
            for checkpoint in range(3):
                # A training step between evaluations: a fresh checkpoint.
                next(iter(model.parameter_arrays().values()))[...] += 0.5
                state = build_state(model, tiny_graph, "test")
                published = pool.ensure_state(state)
                for name, array in expected.items():
                    shared = published.arena.view(name)
                    assert shared.dtype == array.dtype
                    np.testing.assert_array_equal(shared, array)
                tasks = plan_chunks(
                    [((g.relation, g.side), g.queries) for g in state.groups], 128
                )
                for (ranks, _), task in zip(pool.run_tasks(state, tasks), tasks):
                    np.testing.assert_array_equal(ranks, score_chunk(state, task)[0])
            assert pool.states_published == 3
        finally:
            pool.shutdown()
        assert len(builds) == 1

    def test_attached_index_returns_the_parents_answers(self, tiny_state, tiny_graph):
        published = publish_state(tiny_state)
        attached = None
        try:
            attached = attach_state(published.manifest)
            index = attached.state.index
            for side in ("head", "tail"):
                for anchor in range(tiny_graph.num_entities):
                    for relation in range(tiny_graph.num_relations):
                        ours = index.true_answers(anchor, relation, side)
                        theirs = tiny_graph.true_answers(anchor, relation, side)
                        assert ours.dtype == theirs.dtype
                        np.testing.assert_array_equal(ours, theirs)
        finally:
            index = None
            if attached is not None:
                attached.close()
            published.close()
