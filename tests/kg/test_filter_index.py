"""Differential tests of the filter index against a naive set-scan.

Hypothesis generates small graphs with duplicate triples (within and
across splits), self-loops, empty valid/test splits and relations no
triple uses.  Every fast path that reads the index must agree with the
loop-only ``set_scan_answers`` reference over the raw triples:

* ``true_answers`` on the in-memory :class:`KnowledgeGraph` and on the
  on-disk :class:`CompactGraph` — byte-equal to each other, dtype included;
* the training-only ``observed`` sets;
* the engine's chunk gather (:func:`collect_known_answers`) and the rank
  kernel it feeds (:func:`chunk_filtered_ranks`), including truths the
  index never saw.
"""

from __future__ import annotations

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.chunking import chunk_filtered_ranks, collect_known_answers
from repro.kg import (
    KnowledgeGraph,
    TripleSet,
    Vocabulary,
    id_dtype,
    open_compact,
    save_compact,
)


@st.composite
def graphs(draw) -> KnowledgeGraph:
    num_entities = draw(st.integers(1, 7))
    used_relations = draw(st.integers(1, 3))
    unused_relations = draw(st.integers(0, 2))
    entity = st.integers(0, num_entities - 1)
    relation = st.integers(0, used_relations - 1)
    triple = st.tuples(entity, relation, entity) | st.builds(
        lambda e, r: (e, r, e), entity, relation  # self-loop
    )
    train = draw(st.lists(triple, max_size=20))
    # Evaluation splits repeat train triples and themselves as well.
    eval_triple = st.sampled_from(train) | triple if train else triple
    valid = draw(st.lists(eval_triple, max_size=6))
    test = draw(st.lists(eval_triple, max_size=6))
    return KnowledgeGraph(
        entities=Vocabulary([f"e{i}" for i in range(num_entities)]),
        relations=Vocabulary(
            [f"r{i}" for i in range(used_relations + unused_relations)]
        ),
        train=TripleSet(train),
        valid=TripleSet(valid),
        test=TripleSet(test),
        name="generated",
    )


def _every_query(graph):
    for side in ("head", "tail"):
        for anchor in range(graph.num_entities):
            for relation in range(graph.num_relations):
                yield anchor, relation, side


@settings(max_examples=60, deadline=None)
@given(graph=graphs())
def test_true_answers_match_set_scan(graph, set_scan_answers):
    triples = graph.all_triples
    dtype = id_dtype(graph.num_entities)
    for anchor, relation, side in _every_query(graph):
        got = graph.true_answers(anchor, relation, side)
        assert got.tolist() == set_scan_answers(triples, anchor, relation, side)
        assert got.dtype == dtype


@settings(max_examples=30, deadline=None)
@given(graph=graphs())
def test_compact_graph_answers_are_byte_equal(graph):
    with tempfile.TemporaryDirectory() as directory:
        save_compact(graph, directory)
        compact = open_compact(directory)
        for anchor, relation, side in _every_query(graph):
            memory = graph.true_answers(anchor, relation, side)
            mapped = compact.true_answers(anchor, relation, side)
            assert mapped.dtype == memory.dtype
            assert mapped.tobytes() == memory.tobytes()
        del compact  # release the memory maps before the directory goes


@settings(max_examples=60, deadline=None)
@given(graph=graphs())
def test_observed_matches_set_scan(graph):
    dtype = id_dtype(graph.num_entities)
    for relation in range(graph.num_relations):
        for side in ("head", "tail"):
            expected = set()
            for h, r, t in graph.train:
                if r == relation:
                    expected.add(h if side == "head" else t)
            got = graph.observed(relation, side)
            assert got.tolist() == sorted(expected)
            assert got.dtype == dtype


@st.composite
def chunks(draw):
    """A graph plus one same-(relation, side) chunk of arbitrary queries.

    Anchors and truths are free entity ids, so truths are often absent
    from the index — the case the gather's truth guard exists for.
    """
    graph = draw(graphs())
    relation = draw(st.integers(0, graph.num_relations - 1))
    side = draw(st.sampled_from(["head", "tail"]))
    entity = st.integers(0, graph.num_entities - 1)
    queries = draw(st.lists(st.tuples(entity, entity), min_size=1, max_size=8))
    anchors = np.asarray([anchor for anchor, _ in queries], dtype=np.int64)
    truths = np.asarray([truth for _, truth in queries], dtype=np.int64)
    # Small integer scores force plenty of ties.
    scores = np.asarray(
        draw(
            st.lists(
                st.lists(
                    st.integers(0, 3),
                    min_size=graph.num_entities,
                    max_size=graph.num_entities,
                ),
                min_size=len(queries),
                max_size=len(queries),
            )
        ),
        dtype=np.float64,
    )
    # score_chunk ranks an empty pool before the kernel runs; never empty here.
    pool = np.asarray(
        sorted(draw(st.sets(entity, min_size=1, max_size=graph.num_entities))),
        dtype=np.int64,
    )
    return graph, relation, side, anchors, truths, scores, pool


def _reference_excluded(graph, set_scan_answers, relation, side, anchor, truth):
    return set(set_scan_answers(graph.all_triples, anchor, relation, side)) | {truth}


@settings(max_examples=80, deadline=None)
@given(chunk=chunks())
def test_collect_known_answers_matches_set_scan(chunk, set_scan_answers):
    graph, relation, side, anchors, truths, _, _ = chunk
    rows, answers = collect_known_answers(
        graph.filter_index, anchors, truths, relation, side
    )
    assert rows.shape == answers.shape
    for i, (anchor, truth) in enumerate(zip(anchors, truths)):
        got = answers[rows == i].tolist()
        assert len(got) == len(set(got))  # the truth is never added twice
        assert set(got) == _reference_excluded(
            graph, set_scan_answers, relation, side, int(anchor), int(truth)
        )


def _reference_rank(scores, true_score, candidates, excluded):
    better = ties = 0
    for column, entity in enumerate(candidates):
        if entity in excluded:
            continue
        if scores[column] > true_score:
            better += 1
        elif scores[column] == true_score:
            ties += 1
    return 1.0 + better + ties / 2.0


@settings(max_examples=80, deadline=None)
@given(chunk=chunks())
def test_filtered_ranks_match_reference(chunk, set_scan_answers):
    graph, relation, side, anchors, truths, scores, pool = chunk
    true_scores = scores[np.arange(len(truths)), truths]
    rows, answers = collect_known_answers(
        graph.filter_index, anchors, truths, relation, side
    )
    full = chunk_filtered_ranks(scores, true_scores, rows, answers)
    sampled = chunk_filtered_ranks(
        scores[:, pool], true_scores, rows, answers, pool=pool
    )
    for i, (anchor, truth) in enumerate(zip(anchors, truths)):
        excluded = _reference_excluded(
            graph, set_scan_answers, relation, side, int(anchor), int(truth)
        )
        assert full[i] == _reference_rank(
            scores[i], true_scores[i], range(graph.num_entities), excluded
        )
        assert sampled[i] == _reference_rank(
            scores[i, pool], true_scores[i], pool.tolist(), excluded
        )
