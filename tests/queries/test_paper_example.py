"""The paper's worked example (Fig. 3): exact scores asserted.

These are the strongest fidelity tests in the suite: every number is stated
in the paper's text or figures.

* Fig. 3a initial: Q1 p1 = 25, p2 = 10; Q2 c1 = 4 (2²), c2 = 5 (1²+2²).
* Fig. 3b updated: Q1 p1 = 37 (scores+ = 12); Q2 c2 = 16 (4²), c4 = 1 (1²).
* Fig. 4b affected set after the update: ac = {c2, c4}.
"""

import numpy as np
import pytest

from repro.queries import Q1Batch, Q1Incremental, Q2Batch, Q2Incremental

from tests.conftest import C1, C2, C3, C4, P1, P2, build_paper_graph, paper_update


class TestInitialEvaluation:
    def test_q1_scores(self, paper_graph):
        scores = Q1Batch(paper_graph).scores().to_dense()
        assert scores.tolist() == [25, 10]

    def test_q1_top3(self, paper_graph):
        assert Q1Batch(paper_graph).evaluate() == [(P1, 25), (P2, 10)]

    def test_q2_scores(self, paper_graph):
        scores = Q2Batch(paper_graph).scores().to_dense()
        assert scores.tolist() == [4, 5, 0]

    def test_q2_top3(self, paper_graph):
        assert Q2Batch(paper_graph).evaluate() == [(C2, 5), (C1, 4), (C3, 0)]

    @pytest.mark.parametrize("algorithm", ["fastsv", "unionfind", "batched"])
    def test_q2_algorithms_agree(self, paper_graph, algorithm):
        assert Q2Batch(paper_graph, algorithm=algorithm).scores().to_dense().tolist() == [4, 5, 0]


class TestUpdatedEvaluation:
    def test_q1_batch_after_update(self, paper_graph, paper_change_set):
        paper_graph.apply(paper_change_set)
        scores = Q1Batch(paper_graph).scores().to_dense()
        assert scores.tolist() == [37, 10]

    def test_q2_batch_after_update(self, paper_graph, paper_change_set):
        paper_graph.apply(paper_change_set)
        scores = Q2Batch(paper_graph).scores().to_dense()
        assert scores.tolist() == [4, 16, 0, 1]


class TestIncrementalQ1:
    def test_initial_matches_batch(self, paper_graph):
        q = Q1Incremental(paper_graph)
        assert q.initial() == [(P1, 25), (P2, 10)]

    def test_update_scores_plus_is_12(self, paper_graph, paper_change_set):
        """Fig. 4a: the update increments p1's score by exactly 12."""
        q = Q1Incremental(paper_graph)
        q.initial()
        delta = paper_graph.apply(paper_change_set)
        top = q.update(delta)
        assert top == [(P1, 37), (P2, 10)]
        assert q.scores.to_dense().tolist() == [37, 10]

    def test_update_before_initial_raises(self, paper_graph, paper_change_set):
        q = Q1Incremental(paper_graph)
        delta = paper_graph.apply(paper_change_set)
        with pytest.raises(RuntimeError):
            q.update(delta)


class TestIncrementalQ2:
    @pytest.mark.parametrize("algorithm", ["fastsv", "unionfind", "incremental", "batched"])
    def test_full_sequence(self, algorithm):
        g = build_paper_graph()
        q = Q2Incremental(g, algorithm=algorithm)
        assert q.initial() == [(C2, 5), (C1, 4), (C3, 0)]
        delta = g.apply(paper_update())
        assert q.update(delta) == [(C2, 16), (C1, 4), (C4, 1)]

    def test_affected_comments_is_paper_ac_set(self, paper_graph, paper_change_set):
        """Fig. 4b step 5: ac = Δcomments ∪ Δlikes-targets ∪ {2} = {c2, c4}."""
        q = Q2Incremental(paper_graph)
        q.initial()
        delta = paper_graph.apply(paper_change_set)
        affected = q._affected_comments(delta)
        assert affected.tolist() == [1, 3]  # internal idx of c2 and c4

    def test_update_before_initial_raises(self, paper_graph, paper_change_set):
        q = Q2Incremental(paper_graph)
        delta = paper_graph.apply(paper_change_set)
        with pytest.raises(RuntimeError):
            q.update(delta)


class TestFig4bStep1Matrix:
    def test_ac_matrix_values(self, paper_graph, paper_change_set):
        """Step 1-2: AC = Likes' ⊕.⊗ NewFriends has a 2 exactly at (c2, e0)."""
        from repro.graphblas import ops, semiring

        delta = paper_graph.apply(paper_change_set)
        incidence = delta.new_friends_incidence()
        ac = paper_graph.likes.mxm(incidence, semiring.get("plus_times"))
        # the u1-u4 friendship: both like c2 (after the u2 like was added,
        # likers of c2 = {u1, u2, u3, u4})
        kept = ac.select(ops.valueeq, 2)
        assert [(r, c) for r, c, _ in kept.items()] == [(1, 0)]
