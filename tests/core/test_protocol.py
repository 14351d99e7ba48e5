"""EvaluationProtocol: the one-call API's contracts."""

import numpy as np
import pytest

from repro.core import EvaluationProtocol
from repro.models import OracleModel, build_model
from repro.recommenders import LinearWD


class TestConstruction:
    def test_default_sample_fraction(self, codex_s):
        protocol = EvaluationProtocol(codex_s.graph)
        assert protocol.sample_fraction == 0.1

    def test_accepts_recommender_instance(self, codex_s):
        protocol = EvaluationProtocol(codex_s.graph, recommender=LinearWD())
        assert protocol.recommender.name == "l-wd"

    def test_unknown_recommender_raises(self, codex_s):
        with pytest.raises(KeyError):
            EvaluationProtocol(codex_s.graph, recommender="magic")


class TestPrepare:
    def test_idempotent(self, codex_s):
        protocol = EvaluationProtocol(codex_s.graph, strategy="static")
        first = protocol.prepare()
        assert protocol.prepare() is first

    def test_random_needs_no_recommender(self, codex_s):
        protocol = EvaluationProtocol(codex_s.graph, strategy="random")
        report = protocol.prepare()
        assert protocol.fitted is None
        assert report.fit_seconds == 0.0

    def test_static_builds_candidates(self, codex_s):
        protocol = EvaluationProtocol(codex_s.graph, strategy="static")
        protocol.prepare()
        assert protocol.candidates is not None
        assert protocol.pools is not None

    def test_probabilistic_skips_candidates(self, codex_s):
        protocol = EvaluationProtocol(codex_s.graph, strategy="probabilistic")
        protocol.prepare()
        assert protocol.candidates is None
        assert protocol.fitted is not None

    def test_report_totals(self, codex_s):
        report = EvaluationProtocol(codex_s.graph, strategy="static").prepare()
        assert report.total_seconds == pytest.approx(
            report.filter_index_seconds
            + report.fit_seconds
            + report.candidates_seconds
            + report.pools_seconds
        )


    def test_report_times_the_filter_index_build(self, codex_s, tmp_path, monkeypatch):
        """The index build is part of prepare() and of its report — also
        when the rest of the preparation is restored from a store."""
        import time

        from repro.kg import KnowledgeGraph
        from repro.store import ExperimentStore

        original = KnowledgeGraph._build_filter_index

        def slow_build(graph):
            time.sleep(0.05)
            return original(graph)

        monkeypatch.setattr(KnowledgeGraph, "_build_filter_index", slow_build)
        store = ExperimentStore(tmp_path / "store")
        reports = []
        for _ in range(2):
            graph = codex_s.graph.relabel(codex_s.graph.name)  # no cached index
            reports.append(
                EvaluationProtocol(graph, strategy="static", store=store).prepare()
            )
        built, restored = reports
        assert not built.from_cache and restored.from_cache
        for report in reports:
            assert report.filter_index_seconds >= 0.05
            assert report.total_seconds >= report.filter_index_seconds


class TestEvaluate:
    def test_auto_prepares(self, codex_s):
        protocol = EvaluationProtocol(codex_s.graph, strategy="random", num_samples=20)
        model = OracleModel(codex_s.graph, seed=0)
        result = protocol.evaluate(model)
        assert result.num_queries == 2 * len(codex_s.graph.test)

    def test_same_pools_give_identical_estimates(self, codex_s):
        protocol = EvaluationProtocol(codex_s.graph, strategy="static", seed=5)
        model = OracleModel(codex_s.graph, seed=0)
        a = protocol.evaluate(model)
        b = protocol.evaluate(model)
        assert a.metrics.mrr == b.metrics.mrr

    def test_resample_changes_pools(self, codex_s):
        protocol = EvaluationProtocol(
            codex_s.graph, strategy="random", num_samples=30, seed=1
        )
        protocol.prepare()
        before = protocol.pools.pool(0, "tail").copy()
        protocol.resample(seed=99)
        after = protocol.pools.pool(0, "tail")
        assert not np.array_equal(before, after)

    def test_resample_before_prepare(self, codex_s):
        protocol = EvaluationProtocol(codex_s.graph, strategy="random", num_samples=10)
        protocol.resample(seed=3)
        assert protocol.pools is not None

    def test_full_and_sampled_share_query_keys(self, codex_s):
        protocol = EvaluationProtocol(codex_s.graph, strategy="static", seed=0)
        model = build_model(
            "distmult", codex_s.graph.num_entities, codex_s.graph.num_relations, dim=8
        )
        sampled = protocol.evaluate(model)
        full = protocol.evaluate_full(model)
        assert set(sampled.ranks) == set(full.ranks)

    def test_sampled_ranks_never_exceed_full(self, codex_s):
        """A pool is a subset of the full candidate list, so each sampled
        rank is a lower bound on the full filtered rank."""
        protocol = EvaluationProtocol(codex_s.graph, strategy="static", seed=0)
        model = OracleModel(codex_s.graph, skill=1.0, seed=2)
        sampled = protocol.evaluate(model)
        full = protocol.evaluate_full(model)
        for query, rank in sampled.ranks.items():
            assert rank <= full.ranks[query] + 1e-9

    def test_repr_mentions_strategy(self, codex_s):
        protocol = EvaluationProtocol(codex_s.graph, strategy="static", num_samples=64)
        assert "static" in repr(protocol)
        assert "64" in repr(protocol)
