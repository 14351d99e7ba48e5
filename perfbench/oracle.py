"""A deliberately naive reference ranker for ComplEx.

It shares no code with the program's ranking path: scores come from
complex arithmetic on the raw parameter tables (``Re(<h, r, conj t>)``)
rather than the engine's real-valued GEMM, the filter is collected per
query by scanning every split, and ranks are counted in a plain loop.

Because the two score computations round differently, the reference
returns an *interval*: competitors within ``TOLERANCE`` of the truth's
score may fall on either side of it, so a correct rank lies in
``[1 + better, 1 + better + near]``.
"""

from __future__ import annotations

import numpy as np

#: Relative score tolerance that separates "better" from "too close to call".
TOLERANCE = 1e-9


class ReferenceRanker:
    """Filtered ranks and top-k lists recomputed the slow way."""

    def __init__(self, graph):
        self.num_entities = graph.num_entities
        self.splits = [split.array for split in (graph.train, graph.valid, graph.test)]

    def known(self, anchor: int, relation: int, side: str) -> set[int]:
        """Every entity that completes the query in some split: the filter."""
        given, wanted = (0, 2) if side == "tail" else (2, 0)
        found: set[int] = set()
        for triples in self.splits:
            rows = (triples[:, given] == anchor) & (triples[:, 1] == relation)
            found.update(triples[rows, wanted].tolist())
        return found

    @staticmethod
    def _complex(table: np.ndarray) -> np.ndarray:
        half = table.shape[1] // 2
        return table[:, :half] + 1j * table[:, half:]

    def scores(self, model, anchor: int, relation: int, side: str) -> np.ndarray:
        """Scores of every entity filling ``side`` of the query."""
        params = model.parameter_arrays()
        entities = self._complex(np.asarray(params["entity"], dtype=np.float64))
        relation_row = self._complex(
            np.asarray(params["relation"], dtype=np.float64)[relation : relation + 1]
        )[0]
        if side == "tail":
            return np.real((entities[anchor] * relation_row) @ np.conj(entities).T)
        return np.real(entities @ (relation_row * np.conj(entities[anchor])))

    def rank_bounds(
        self, model, head: int, relation: int, tail: int, side: str, pool=None
    ) -> tuple[float, float]:
        """``(lowest, highest)`` filtered rank the query may correctly get."""
        anchor, truth = (tail, head) if side == "head" else (head, tail)
        scores = self.scores(model, anchor, relation, side).tolist()
        known = self.known(anchor, relation, side)
        truth_score = scores[truth]
        margin = TOLERANCE * (1.0 + abs(truth_score))
        candidates = range(self.num_entities) if pool is None else pool
        better = near = 0
        for entity in candidates:
            entity = int(entity)
            if entity == truth or entity in known:
                continue
            score = scores[entity]
            if score > truth_score + margin:
                better += 1
            elif score >= truth_score - margin:
                near += 1
        return 1.0 + better, 1.0 + better + near

    def check_rank(self, model, query, rank: float, pool=None) -> str | None:
        """None when ``rank`` is a correct filtered rank of ``query``."""
        head, relation, tail, side = query
        low, high = self.rank_bounds(model, head, relation, tail, side, pool)
        if low <= rank <= high:
            return None
        return f"rank of {query} is {rank}, reference allows [{low}, {high}]"

    def check_topk(
        self, model, anchor: int, relation: int, side: str, k: int, candidates, returned
    ) -> str | None:
        """None when ``returned`` (``[(entity, score), ...]``) is a correct top-k.

        Known answers of the query and the anchor itself are excluded;
        ``candidates`` is the admissible set (empty means every entity).
        """
        scores = self.scores(model, anchor, relation, side).tolist()
        known = self.known(anchor, relation, side)
        pool = range(self.num_entities) if len(candidates) == 0 else candidates
        eligible = {}
        for entity in pool:
            entity = int(entity)
            if entity != anchor and entity not in known:
                eligible[entity] = scores[entity]
        query = (anchor, relation, side)
        if len(returned) != min(k, len(eligible)):
            return f"top-{k} of {query} has {len(returned)} entries, expected {min(k, len(eligible))}"
        seen = set()
        previous = float("inf")
        for entity, score in returned:
            if entity not in eligible or entity in seen:
                return f"top-{k} of {query} returns inadmissible entity {entity}"
            seen.add(entity)
            expected = eligible[entity]
            margin = TOLERANCE * (1.0 + abs(expected))
            if abs(score - expected) > margin or score > previous + margin:
                return f"top-{k} of {query}: entity {entity} scored {score}, reference {expected}"
            previous = score
        best_left_out = max(
            (score for entity, score in eligible.items() if entity not in seen),
            default=-float("inf"),
        )
        if best_left_out > previous + TOLERANCE * (1.0 + abs(previous)):
            return f"top-{k} of {query} omits an entity scoring {best_left_out} > {previous}"
        return None
