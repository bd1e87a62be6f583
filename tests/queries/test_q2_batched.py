"""Q2 batched scoring (one FastSV over the block-diagonal liker graph).

``score_comments(algorithm="batched")`` must agree with the per-comment
kernels (``unionfind`` as the reference, ``fastsv`` as the paper's) on every
comment, whether all comments or a subset are requested, including
comments without likes (score 0) and graphs without any likes at all.
"""

import numpy as np
import pytest

from repro.datagen import generate_graph
from repro.model import SocialGraph
from repro.queries.q2 import score_comments
from repro.queries.q2_batched import batched_comment_scores

from tests.conftest import C1, C2, C3, P1, U1, U2, U3, build_paper_graph


@pytest.fixture(scope="module", params=[(1, 0), (1, 3), (1, 7), (2, 0), (2, 5)], ids=str)
def graph(request):
    sf, seed = request.param
    return generate_graph(sf, seed=seed)


def test_all_comments_match_per_comment_kernels(graph):
    comments = range(graph.num_comments)
    reference = score_comments(graph, comments, algorithm="unionfind")
    assert score_comments(graph, comments, algorithm="batched") == reference
    assert score_comments(graph, comments, algorithm="fastsv") == reference
    # the raw kernel omits exactly the comments without likes
    assert batched_comment_scores(graph) == {c: s for c, s in reference.items() if s}


def test_subset_matches_per_comment_kernel(graph):
    rng = np.random.default_rng(graph.num_comments)
    subset = rng.choice(graph.num_comments, size=graph.num_comments // 3, replace=False)
    got = score_comments(graph, subset.tolist(), algorithm="batched")
    assert list(got) == subset.tolist()  # every requested comment, in order
    assert got == score_comments(graph, subset.tolist(), algorithm="unionfind")


def test_subset_edges_never_cross_into_unrequested_comments():
    """Paper example: c2's likers {u1, u3, u4} form components {u1},
    {u3, u4}; requesting only c2 must not pull in c1's u2-u3 edge."""
    g = build_paper_graph()
    c1, c2, c3 = (g.comments.index(c) for c in (C1, C2, C3))
    assert batched_comment_scores(g, [c2]) == {c2: 5}
    assert score_comments(g, [c3, c1], algorithm="batched") == {c3: 0, c1: 4}


def test_graph_without_likes_scores_nothing():
    g = SocialGraph()
    for uid in (U1, U2, U3):
        g.add_user(uid, str(uid))
    g.add_post(P1, 10, U1)
    g.add_comment(C1, 20, U2, P1)
    g.add_friendship(U2, U3)
    assert batched_comment_scores(g) == {}
    assert score_comments(g, [0], algorithm="batched") == {0: 0}


@pytest.mark.parametrize("tool", ["graphblas-batch", "graphblas-incremental"])
def test_service_results_match_default_algorithm(tool):
    """The serving path (``q2_algorithm="batched"``) over a change stream."""
    from repro.datagen import generate_benchmark_input
    from repro.serving import GraphService

    results = []
    for algorithm in ("batched", "fastsv"):
        g, change_sets = generate_benchmark_input(1, seed=11, num_change_sets=4)
        with GraphService(
            g, queries=("Q2",), tools=(tool,), q2_algorithm=algorithm, max_batch=8
        ) as svc:
            trail = [svc.query("Q2", tool).result_string]
            for cs in change_sets:
                for ch in cs:
                    svc.submit(ch)
                svc.flush()
                trail.append(svc.query("Q2", tool).result_string)
        results.append(trail)
    assert results[0] == results[1]
    assert len(set(results[0])) > 1  # the stream really moved the top 3
