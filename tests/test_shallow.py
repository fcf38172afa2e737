import random

import pytest

from treerank.errors import ScaleExceeded
from treerank.graph import Embedding, gen_random, gen_tree, make_graph, subdivide
from treerank.ranking import compute_ranking
from treerank.shallow import (
    contains_shallow_tree,
    extract_shallow_tree,
    m_prime,
    tree_children,
    validate_embedding,
    w_count,
)

from helpers import cycle, seeded_random_graphs


class TestBoundArithmetic:
    def test_w_count_examples(self):
        assert w_count(2, 2, 1) == 5
        assert w_count(1, 4, 7) == 1
        assert w_count(2, 3, 0) == 4

    def test_m_prime_loop_equals_recurrence(self):
        def recurrence(d, r, m):
            if d == 1:
                return m - 1
            big_m = m * w_count(d, m, r) + r * m + m
            return max(recurrence(d - 1, r, big_m), r * m)

        for d in range(1, 7):
            for r in range(1, 4):
                for m in range(1, 4):
                    assert m_prime(d, r, m) == recurrence(d, r, m), (d, r, m)

    def test_w_count_equals_vertex_sum(self):
        for d in range(1, 8):
            for m in range(1, 5):
                for r in range(3):
                    v = sum(m**i for i in range(d))
                    assert w_count(d, m, r) == v + r * (v - 1)

    def test_m_prime_cap(self):
        with pytest.raises(ScaleExceeded, match="m_prime"):
            m_prime(12, 2, 2)
        with pytest.raises(ScaleExceeded, match="m_prime"):
            m_prime(10**9, 1, 1)
        assert m_prime(8, 1, 1).bit_length() == 21537

    def test_m_prime_base_case(self):
        assert m_prime(1, 3, 4) == 3
        assert m_prime(1, 1, 1) == 0

    def test_m_prime_recursion(self):
        # W = 5, M = 2*5 + 1*2 + 2 = 14, m'' = m_prime(1,1,14) = 13,
        # final max(13, 2) = 13.
        assert m_prime(2, 1, 2) == 13

    def test_m_prime_never_below_rm(self):
        for d in (2, 3):
            for r in (1, 2):
                for m in (1, 2, 3):
                    assert m_prime(d, r, m) >= r * m

    def test_m_prime_inflates_branching_by_w(self):
        # (d, r, m) = (2, 1, 2): W = 5 and M = 2*5 + 1*2 + 2 = 14, so
        # m_prime is the depth-1 parameter at branching 14.
        assert w_count(2, 2, 1) == 5
        assert m_prime(2, 1, 2) == m_prime(1, 1, 14) == 13


class TestContains:
    def test_subdivided_tree_contains_itself(self):
        g = subdivide(gen_tree(2, 3), 1)
        emb = contains_shallow_tree(g, 2, 3, 1)
        assert emb is not None
        validate_embedding(g, emb, 2, 3, 1)

    def test_subdivided_tree_lacks_wider_pattern(self):
        g = subdivide(gen_tree(2, 3), 1)
        assert contains_shallow_tree(g, 2, 4, 1) is None

    def test_cycle_lacks_branching(self):
        assert contains_shallow_tree(cycle(6), 1, 3, 2) is None

    def test_depth_zero_pattern(self):
        emb = contains_shallow_tree(make_graph(1), 0, 1, 0)
        assert emb is not None and emb.principal == {0: 0}

    def test_cap_aborts(self):
        g = gen_random(14, 0.6, 3)
        with pytest.raises(ScaleExceeded):
            contains_shallow_tree(g, 2, 3, 2, cap_nodes=5)


class TestValidator:
    def test_rejects_shared_internal(self):
        g = make_graph(5, [(0, 1), (1, 2), (0, 3), (3, 2)])
        emb = Embedding({0: 0, 1: 2, 2: 2}, {(0, 1): (0, 1, 2), (0, 2): (0, 3, 2)})
        with pytest.raises(ValueError):
            validate_embedding(g, emb, 1, 2, 1)

    def test_rejects_non_edge(self):
        g = make_graph(3, [(0, 1)])
        emb = Embedding({0: 0, 1: 1, 2: 2}, {(0, 1): (0, 1), (0, 2): (0, 2)})
        with pytest.raises(ValueError, match="non-edge"):
            validate_embedding(g, emb, 1, 2, 0)

    def test_rejects_long_path(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        emb = Embedding({0: 0, 1: 3}, {(0, 1): (0, 1, 2, 3)})
        with pytest.raises(ValueError, match="internal"):
            validate_embedding(g, emb, 1, 1, 1)

    def test_tree_children_layout(self):
        assert tree_children(2, 2) == [[1, 2], [3, 4], [5, 6], [], [], [], []]


class TestExtraction:
    def test_star_base_case(self):
        g = gen_tree(1, 5)
        ra = compute_ranking(g, 1, m_prime(1, 1, 3))
        emb = extract_shallow_tree(g, ra, 0, 1, 3, 1)
        validate_embedding(g, emb, 1, 3, 1)
        assert emb.principal[0] == 0

    def test_low_rank_rejected(self):
        g = gen_tree(1, 2)
        ra = compute_ranking(g, 1, m_prime(1, 1, 3))
        with pytest.raises(ValueError, match="rank"):
            extract_shallow_tree(g, ra, 1, 1, 3, 1)

    def test_wrong_parameters_rejected(self):
        g = gen_tree(1, 5)
        ra = compute_ranking(g, 1, 4)  # m_prime(1,1,3) is 2, not 4
        with pytest.raises(ValueError, match="parameters"):
            extract_shallow_tree(g, ra, 0, 1, 3, 1)

    def test_depth_two_from_wide_tree(self):
        # Root of the unsubdivided depth-2 tree with branching 14 ranks
        # above 2 at (r=1, m=13), so the (d=2, m=2) pattern extracts.
        g = gen_tree(2, 14)
        mp = m_prime(2, 1, 2)
        ra = compute_ranking(g, 1, mp)
        assert ra.ranks[0] > 2
        emb = extract_shallow_tree(g, ra, 0, 2, 2, 1)
        validate_embedding(g, emb, 2, 2, 1)
        assert emb.principal[0] == 0

    def test_depth_two_from_dense_random(self):
        g = gen_random(20, 0.95, 7)
        mp = m_prime(2, 1, 2)
        ra = compute_ranking(g, 1, mp)
        targets = [v for v in range(g.n) if ra.ranks[v] > 2]
        assert targets
        for v in targets[:3]:
            emb = extract_shallow_tree(g, ra, v, 2, 2, 1)
            validate_embedding(g, emb, 2, 2, 1)
            assert emb.principal[0] == v


class TestRankLowerBound:
    # Subdivision counts at most r-1 keep each child within the radius-r
    # ball of its parent, which is what forces the root's rank up.
    def test_family_root_rank(self):
        for d in (1, 2):
            for m in (1, 2, 3):
                for r in (1, 2):
                    for c in range(r):
                        g = subdivide(gen_tree(d, m + 1), c)
                        ra = compute_ranking(g, r, m)
                        assert ra.ranks[0] >= d + 1, (d, m, r, c)
                        assert ra.max_rank() > d

    def test_full_depth_subdivision_boundary(self):
        # With counts equal to r the children leave the radius-r ball and
        # the rank collapses; this pins the boundary of the guarantee.
        g = subdivide(gen_tree(2, 3), 1)
        ra = compute_ranking(g, 1, 2)
        assert ra.ranks[0] == 2


class TestExtractionProperty:
    def test_extraction_succeeds_whenever_rank_exceeds_depth(self):
        rng = random.Random(3)
        graphs = seeded_random_graphs(25, 14, 101)
        graphs += [subdivide(gen_tree(d, m + 1), c) for d in (1, 2) for m in (1, 2) for c in (0, 1)]
        attempted = 0
        for g in graphs:
            for d, m, r in [(1, 2, 1), (1, 3, 2), (2, 2, 1)]:
                mp = m_prime(d, r, m)
                ra = compute_ranking(g, r, mp)
                for v in range(g.n):
                    if ra.ranks[v] > d:
                        emb = extract_shallow_tree(g, ra, v, d, m, r)
                        validate_embedding(g, emb, d, m, r)
                        assert emb.principal[0] == v
                        attempted += 1
        assert attempted > 0

    def test_contains_confirms_extractions(self):
        g = gen_tree(2, 14)
        mp = m_prime(2, 1, 2)
        ra = compute_ranking(g, 1, mp)
        extract_shallow_tree(g, ra, 0, 2, 2, 1)
        found = contains_shallow_tree(g, 2, 2, 1)
        assert found is not None
        validate_embedding(g, found, 2, 2, 1)
