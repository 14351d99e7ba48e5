"""Full filtered ranking: hand-checked ranks, filtering semantics, batching."""

import numpy as np
import pytest

from repro.core import evaluate_full, filtered_rank
from repro.core.ranking import chunk_filtered_ranks, grouped_queries, query_chunks, split_triples
from repro.kg.graph import HEAD, TAIL
from repro.models import RandomModel, build_model


class TestFilteredRank:
    def test_best_rank_is_one(self):
        scores = np.array([0.1, 0.9, 0.2, 0.3])
        assert filtered_rank(scores, truth=1, known_answers=np.array([1])) == 1.0

    def test_counts_better_candidates(self):
        scores = np.array([0.5, 0.1, 0.9, 0.8])
        # truth = 1 (0.1): three candidates score higher.
        assert filtered_rank(scores, truth=1, known_answers=np.array([1])) == 4.0

    def test_known_answers_are_filtered(self):
        scores = np.array([0.5, 0.1, 0.9, 0.8])
        # 2 and 3 are known true answers: only 0 outranks the truth.
        assert filtered_rank(scores, truth=1, known_answers=np.array([1, 2, 3])) == 2.0

    def test_ties_count_half(self):
        scores = np.array([0.5, 0.5, 0.5])
        assert filtered_rank(scores, truth=0, known_answers=np.array([0])) == 2.0

    def test_truth_never_competes_with_itself(self):
        scores = np.array([0.5])
        assert filtered_rank(scores, truth=0, known_answers=np.empty(0, dtype=int)) == 1.0


class TestChunkFilteredRanks:
    def test_matches_scalar_reference_full(self, rng):
        scores = rng.standard_normal((5, 20))
        truths = rng.integers(20, size=5)
        true_scores = scores[np.arange(5), truths]
        knowns = [
            np.unique(np.append(rng.integers(20, size=3), truths[i]))
            for i in range(5)
        ]
        rows = np.repeat(np.arange(5), [known.size for known in knowns])
        ranks = chunk_filtered_ranks(scores, true_scores, rows, np.concatenate(knowns))
        for i in range(5):
            expected = filtered_rank(scores[i], int(truths[i]), knowns[i])
            assert ranks[i] == pytest.approx(expected)

    def test_pool_mode_ignores_out_of_pool_exclusions(self, rng):
        pool = np.array([2, 5, 9, 14])
        scores = rng.standard_normal((2, 4))
        true_scores = np.array([10.0, -10.0])  # truth not in pool
        # Query 0 excludes 5 and 100, query 1 excludes 3; 100 and 3 are not in pool.
        rows, answers = np.array([0, 0, 1]), np.array([5, 100, 3])
        ranks = chunk_filtered_ranks(scores, true_scores, rows, answers, pool=pool)
        # Query 0: truth outranks everything -> rank 1.
        assert ranks[0] == 1.0
        # Query 1: all four pool scores beat -10 -> rank 5.
        assert ranks[1] == 5.0

    def test_empty_knowns(self, rng):
        scores = np.asarray([[1.0, 2.0, 3.0]])
        empty = np.empty(0, dtype=np.int64)
        ranks = chunk_filtered_ranks(scores, np.array([2.5]), empty, empty)
        assert ranks[0] == 2.0


class TestGrouping:
    def test_groups_cover_both_sides(self, tiny_graph):
        groups = grouped_queries(tiny_graph, "test")
        assert (0, HEAD) in groups and (0, TAIL) in groups
        assert len(groups[(0, TAIL)]) == 1
        anchor, truth, h, t = groups[(0, TAIL)][0]
        assert (anchor, truth, h, t) == (0, 3, 0, 3)

    def test_single_side(self, tiny_graph):
        groups = grouped_queries(tiny_graph, "test", sides=(TAIL,))
        assert all(side == TAIL for (_, side) in groups)

    def test_chunks_partition(self):
        slices = list(query_chunks(10, chunk_size=4))
        covered = [i for s in slices for i in range(s.start, s.stop)]
        assert covered == list(range(10))

    def test_unknown_split_raises(self, tiny_graph):
        with pytest.raises(KeyError):
            split_triples(tiny_graph, "dev")


class TestEvaluateFull:
    def test_perfect_model_gets_mrr_one(self, tiny_graph):
        """A model that scores exactly the known answers highest."""

        class PerfectModel(RandomModel):
            def __init__(self, graph):
                self.graph = graph
                super().__init__(graph.num_entities, graph.num_relations, seed=0)

            def score_all(self, anchor, relation, side):
                scores = np.zeros(self.num_entities)
                scores[self.graph.true_answers(anchor, relation, side)] = 1.0
                return scores

        result = evaluate_full(PerfectModel(tiny_graph), tiny_graph, split="test")
        assert result.metrics.mrr == 1.0
        assert result.metrics.hits_at(1) == 1.0

    def test_two_queries_per_triple(self, tiny_graph):
        model = RandomModel(tiny_graph.num_entities, tiny_graph.num_relations)
        result = evaluate_full(model, tiny_graph, split="test")
        assert result.num_queries == 2 * len(tiny_graph.test)

    def test_num_scored_counts_full_vocabulary(self, tiny_graph):
        model = RandomModel(tiny_graph.num_entities, tiny_graph.num_relations)
        result = evaluate_full(model, tiny_graph, split="test")
        assert result.num_scored == 2 * len(tiny_graph.test) * tiny_graph.num_entities

    def test_valid_split_supported(self, tiny_graph):
        model = RandomModel(tiny_graph.num_entities, tiny_graph.num_relations)
        result = evaluate_full(model, tiny_graph, split="valid")
        assert result.num_queries == 2

    def test_batched_equals_reference_on_real_model(self, codex_s):
        graph = codex_s.graph
        model = build_model("distmult", graph.num_entities, graph.num_relations, dim=8, seed=1)
        result = evaluate_full(model, graph, split="test")
        for (h, r, t, side), rank in list(result.ranks.items())[:40]:
            anchor, truth = (t, h) if side == HEAD else (h, t)
            reference = filtered_rank(
                model.score_all(anchor, r, side), truth, graph.true_answers(anchor, r, side)
            )
            assert rank == pytest.approx(reference)

    def test_filtering_lowers_no_rank(self, codex_s):
        """Filtered ranks are never worse than raw ranks."""
        graph = codex_s.graph
        model = build_model("distmult", graph.num_entities, graph.num_relations, dim=8, seed=1)
        result = evaluate_full(model, graph, split="test")
        for (h, r, t, side), rank in list(result.ranks.items())[:40]:
            anchor, truth = (t, h) if side == HEAD else (h, t)
            raw = filtered_rank(
                model.score_all(anchor, r, side), truth, np.array([truth])
            )
            assert rank <= raw + 1e-9
