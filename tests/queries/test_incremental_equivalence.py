"""The central correctness property of the paper's contribution:

    incremental evaluation ≡ batch re-evaluation, after every change set,
    for both queries, on randomised graphs and randomised update streams.

This is the property-based analogue of the contest's correctness check.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.queries import Q1Batch, Q1Incremental, Q2Batch, Q2Incremental
from tests.conftest import clone_changes, graph_and_updates


@given(graph_and_updates())
@settings(max_examples=40, deadline=None)
def test_q1_incremental_equals_batch(case):
    _, g_inc, change_sets = case
    # replay the same construction twice via CSV-free cloning: rebuild from
    # a snapshot by applying to two graphs would mutate one; instead run the
    # incremental engine first, capturing batch results on the same graph.
    q = Q1Incremental(g_inc)
    inc_results = [q.initial()]
    batch_results = [Q1Batch(g_inc).evaluate()]
    for cs in clone_changes(change_sets):
        delta = g_inc.apply(cs)
        inc_results.append(q.update(delta))
        batch_results.append(Q1Batch(g_inc).evaluate())
    assert inc_results == batch_results


@given(graph_and_updates())
@settings(max_examples=30, deadline=None)
@pytest.mark.parametrize("algorithm", ["fastsv", "unionfind", "incremental", "batched"])
def test_q2_incremental_equals_batch(algorithm, case):
    _, g, change_sets = case
    q = Q2Incremental(g, algorithm=algorithm)
    inc_results = [q.initial()]
    batch_results = [Q2Batch(g, algorithm="unionfind").evaluate()]
    for cs in clone_changes(change_sets):
        delta = g.apply(cs)
        inc_results.append(q.update(delta))
        batch_results.append(Q2Batch(g, algorithm="unionfind").evaluate())
    assert inc_results == batch_results


@given(graph_and_updates())
@settings(max_examples=20, deadline=None)
def test_q2_scores_vector_matches_batch_exactly(case):
    """Beyond top-3: the maintained full scores vector equals batch scores."""
    _, g, change_sets = case
    q = Q2Incremental(g, algorithm="unionfind")
    q.initial()
    for cs in clone_changes(change_sets):
        delta = g.apply(cs)
        q.update(delta)
    batch = Q2Batch(g, algorithm="unionfind").scores().to_dense()
    maintained = q.scores.to_dense()
    np.testing.assert_array_equal(maintained, batch)


@given(graph_and_updates())
@settings(max_examples=20, deadline=None)
def test_q1_scores_vector_matches_batch_exactly(case):
    _, g, change_sets = case
    q = Q1Incremental(g)
    q.initial()
    for cs in clone_changes(change_sets):
        delta = g.apply(cs)
        q.update(delta)
    batch = Q1Batch(g).scores().to_dense()
    maintained = q.scores.to_dense()
    np.testing.assert_array_equal(maintained, batch)
