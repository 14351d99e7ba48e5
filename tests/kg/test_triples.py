"""The compact triple store: CSR equality, round-trips, id dtypes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.kg import (
    CompactGraph,
    FilterIndexCSR,
    KnowledgeGraph,
    build_filter_csr,
    build_graph,
    id_dtype,
    open_compact,
    save_compact,
    unique_rows_in_order,
)
from repro.kg.graph import INT32_LIMIT


@pytest.fixture
def labelled_triples():
    train = [
        ("a", "likes", "b"),
        ("a", "likes", "c"),
        ("b", "likes", "c"),
        ("d", "knows", "e"),
        ("f", "made", "a"),
    ]
    valid = [("e", "knows", "f")]
    test = [("a", "likes", "d")]
    return train, valid, test


@pytest.fixture
def graph(labelled_triples) -> KnowledgeGraph:
    train, valid, test = labelled_triples
    return build_graph(
        {"train": train, "valid": valid, "test": test}, name="compact-toy"
    )


@pytest.fixture
def compact(graph, tmp_path) -> CompactGraph:
    save_compact(graph, tmp_path / "store")
    return open_compact(tmp_path / "store")


class TestIdDtype:
    def test_small_vocabulary_is_int32(self):
        assert id_dtype(6) == np.dtype(np.int32)
        assert id_dtype(INT32_LIMIT - 1) == np.dtype(np.int32)

    def test_boundary_falls_back_to_int64(self):
        assert id_dtype(INT32_LIMIT) == np.dtype(np.int64)
        assert id_dtype(INT32_LIMIT + 7) == np.dtype(np.int64)

    def test_filter_index_buffers_downcast(self, graph):
        index = graph.filter_index
        for side in ("head", "tail"):
            assert index.values[side].dtype == np.int32
            # Composite keys and offsets stay int64 whatever the vocabulary.
            assert index.keys[side].dtype == np.int64
            assert index.offsets[side].dtype == np.int64
        assert graph.true_answers(0, 0, "tail").dtype == np.int32

    def test_observed_buffers_downcast(self, graph):
        assert graph.observed(0, "head").dtype == np.int32


class TestUniqueRowsInOrder:
    def test_keeps_first_occurrence_in_encounter_order(self):
        rows = np.array(
            [[1, 0, 2], [0, 0, 1], [1, 0, 2], [0, 0, 1], [2, 1, 0]],
            dtype=np.int32,
        )
        out = unique_rows_in_order(rows)
        np.testing.assert_array_equal(
            out, np.array([[1, 0, 2], [0, 0, 1], [2, 1, 0]], dtype=np.int32)
        )

    def test_no_duplicates_is_identity(self):
        rows = np.array([[0, 0, 1], [1, 0, 2]], dtype=np.int32)
        np.testing.assert_array_equal(unique_rows_in_order(rows), rows)

    def test_empty(self):
        rows = np.empty((0, 3), dtype=np.int32)
        assert unique_rows_in_order(rows).shape == (0, 3)


def _every_query(graph):
    for side in ("head", "tail"):
        for anchor in range(graph.num_entities):
            for relation in range(graph.num_relations):
                yield anchor, relation, side


class TestBuildFilterCSR:
    """The vectorised CSR build must match a naive set-scan exactly."""

    def test_matches_set_scan_reference(self, graph, set_scan_answers):
        csr = build_filter_csr(
            graph.num_entities,
            graph.num_relations,
            [getattr(graph, split).array for split in ("train", "valid", "test")],
        )
        triples = graph.all_triples
        for anchor, relation, side in _every_query(graph):
            got = csr.true_answers(anchor, relation, side)
            assert got.tolist() == set_scan_answers(triples, anchor, relation, side)
            assert got.dtype == np.int32

    def test_missing_key_is_empty(self, graph):
        csr = graph.filter_index
        assert isinstance(csr, FilterIndexCSR)
        missing = csr.true_answers(5, 2, "head")
        assert missing.size == 0
        assert missing.dtype == np.int32


class TestCompactRoundTrip:
    def test_vocabulary_and_sizes_survive(self, graph, compact):
        assert compact.num_entities == graph.num_entities
        assert compact.num_relations == graph.num_relations
        assert compact.name == graph.name
        assert compact.entity_labels() == list(graph.entities.labels())
        assert compact.relation_labels() == list(graph.relations.labels())

    def test_split_arrays_bitwise_equal(self, graph, compact):
        for split in ("train", "valid", "test"):
            np.testing.assert_array_equal(
                getattr(compact, split).array, getattr(graph, split).array
            )

    def test_stored_ids_are_int32(self, compact):
        assert compact.split_array("train").dtype == np.int32

    def test_triple_sets_are_int64_views(self, compact):
        # Evaluation code consumes TripleSet; materialisation is int64.
        assert compact.train.array.dtype == np.int64

    def test_to_knowledge_graph_round_trips(self, graph, compact):
        back = compact.to_knowledge_graph()
        for split in ("train", "valid", "test"):
            np.testing.assert_array_equal(
                getattr(back, split).array, getattr(graph, split).array
            )
        assert list(back.entities.labels()) == list(graph.entities.labels())

    def test_filter_index_property_serves_csr(self, graph, compact, set_scan_answers):
        csr = compact.filter_index
        assert isinstance(csr, FilterIndexCSR)
        assert compact.filter_index is csr  # built once, lazily
        triples = graph.all_triples
        for anchor, relation, side in _every_query(graph):
            assert compact.true_answers(anchor, relation, side).tolist() == (
                set_scan_answers(triples, anchor, relation, side)
            )

    def test_compact_and_memory_indexes_are_byte_equal(self, graph, compact):
        memory = graph.filter_index.arrays()
        mapped = compact.filter_index.arrays()
        assert memory.keys() == mapped.keys()
        for name, array in memory.items():
            assert mapped[name].dtype == array.dtype, name
            assert mapped[name].tobytes() == array.tobytes(), name

    def test_manifest_validation_rejects_foreign_format(self, tmp_path, graph):
        save_compact(graph, tmp_path / "store")
        manifest_path = tmp_path / "store" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = "something-else"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="manifest"):
            open_compact(tmp_path / "store")

    def test_iteration_is_rejected(self, compact):
        # A CompactGraph is not a triple sequence; looping over a
        # million-entity store entity-by-entity is always a bug.
        with pytest.raises(TypeError):
            iter(compact)
