import random

import pytest

from treerank.errors import ScaleExceeded
from treerank.generators import gen_halfgraph, gen_random
from treerank.graph import make_graph
from treerank.halfgraph import (
    HalfgraphWitness,
    extract_halfgraph,
    extract_halfgraph_for_pair,
    find_halfgraph,
    g_bound,
    h_bound,
    nt_path,
    validate_halfgraph,
)
from treerank.neartwin import neartwin_graph, neartwin_view, symdiff

from helpers import (
    complete_bipartite,
    complete_graph,
    disjoint_union,
    nt_edges_allpairs,
    nt_path_scan,
    seeded_dense_graphs,
    seeded_random_graphs,
    star,
)


class TestSymdiff:
    def test_twin_leaves(self):
        assert symdiff(star(4), 1, 2) == 0

    def test_center_versus_leaf(self):
        assert symdiff(star(3), 0, 1) == 4

    def test_adjacent_clique_pair(self):
        for n in (3, 5, 8):
            assert symdiff(complete_graph(n), 0, 1) == 2

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            symdiff(star(3), 1, 1)

    @pytest.mark.parametrize("u, v", [(-1, 0), (0, 4)])
    def test_out_of_range_vertex_rejected(self, u, v):
        # Without the check, -1 would index the last row.
        with pytest.raises(ValueError, match="out of range"):
            symdiff(star(3), u, v)

    def test_symmetric(self):
        g = gen_random(9, 0.4, 3)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert symdiff(g, u, v) == symdiff(g, v, u)


class TestView:
    def test_star_components_at_zero(self):
        view = neartwin_view(star(3), 0)
        assert view.components == ((0,), (1, 2, 3))

    def test_clique_single_component(self):
        view = neartwin_view(complete_graph(6), 2)
        assert len(view.components) == 1
        assert view.nt_graph.edge_count() == 15

    def test_edgeless_single_component(self):
        view = neartwin_view(make_graph(5), 0)
        assert view.components == ((0, 1, 2, 3, 4),)

    def test_graph_matches_allpairs_oracle(self):
        corpus = seeded_random_graphs(30, 14, 62) + seeded_dense_graphs(20, 18, 63)
        for g in corpus:
            for k in (0, 1, 2, 4, 7, 11):
                assert list(neartwin_graph(g, k).adj) == nt_edges_allpairs(g, k)

    def test_negative_threshold(self):
        assert neartwin_graph(complete_graph(4), -1).edge_count() == 0
        with pytest.raises(ValueError):
            neartwin_view(complete_graph(4), -1)

    def test_pair_cap_reaches_every_caller(self):
        # n = 2237 has 2,500,966 > GRAPH_MAX_PAIRS vertex pairs; every
        # function that builds NT_k(g) refuses it before the scan.  Vertex
        # 0's 100 extra neighbours let the pair (0, 1) pass the extraction
        # precondition, so it reaches nt_path.
        g = make_graph(2237, [(0, v) for v in range(2, 102)])
        calls = [
            lambda: neartwin_graph(g, 0),
            lambda: neartwin_view(g, 0),
            lambda: nt_path(g, 0, 0, 1),
            lambda: extract_halfgraph_for_pair(g, 0, 1, 0, 1),
        ]
        for call in calls:
            with pytest.raises(ScaleExceeded, match="neartwin_graph"):
                call()
        assert nt_path(g, 0, 5, 5) == [5]

    def test_monotone_in_k(self):
        for g in seeded_random_graphs(10, 9, 61):
            prev = set()
            for k in range(4):
                cur = set(neartwin_view(g, k).nt_graph.edges())
                assert prev <= cur
                prev = cur


class TestBounds:
    def test_g_bound_values(self):
        assert g_bound(3, 2, 1) == 3
        assert g_bound(3, 2, 2) == 8
        assert g_bound(3, 2, 3) == 21

    def test_g_bound_follows_recurrence(self):
        def rec(c, k, t):
            return c if t == 1 else rec(c, k, t - 1) * (t - 1) + k + c

        for c, k in [(2, 0), (3, 2), (5, 7)]:
            for t in range(1, 51):
                assert g_bound(c, k, t) == rec(c, k, t)

    def test_g_bound_deep_t(self):
        assert g_bound(3, 2, 1200) > g_bound(3, 2, 1199) > 0

    def test_h_bound_values(self):
        assert h_bound(2, 2) == 16
        assert h_bound(5, 1) == 4
        assert h_bound(0, 2) == 12

    @pytest.mark.parametrize("c,k,t", [(-1, 2, 3), (3, -1, 3), (-1, -1, 1)])
    def test_g_bound_refuses_negative_c_or_k(self, c, k, t):
        with pytest.raises(ValueError, match="need c >= 0, k >= 0"):
            g_bound(c, k, t)
        with pytest.raises(ValueError, match="need t >= 1"):
            g_bound(c, k, 0)

    def test_h_bound_refuses_a_negative_k(self):
        with pytest.raises(ValueError, match="need c >= 0, k >= 0"):
            h_bound(-1, 3)


class TestFindHalfgraph:
    def test_generated_halfgraph_found(self):
        g = gen_halfgraph(3)
        wit = find_halfgraph(g, 3)
        assert wit is not None
        validate_halfgraph(g, wit)

    def test_clique_has_no_order_two(self):
        assert find_halfgraph(complete_graph(4), 2) is None

    def test_edgeless_has_no_order_one(self):
        assert find_halfgraph(make_graph(4), 1) is None

    def test_order_one_is_an_edge(self):
        wit = find_halfgraph(make_graph(2, [(0, 1)]), 1)
        assert wit is not None
        validate_halfgraph(make_graph(2, [(0, 1)]), wit)

    def test_too_few_vertices(self):
        assert find_halfgraph(make_graph(3), 2) is None

    def test_cap_aborts(self):
        g = gen_random(16, 0.5, 4)
        with pytest.raises(ScaleExceeded):
            find_halfgraph(g, 4, cap_nodes=3)

    @pytest.mark.parametrize("n, p, seed, t, cap, found", [
        (10, 0.5, 6, 4, 474, True),
        (12, 0.25, 4, 4, 1420, False),
    ])
    def test_each_search_node_costs_one_unit(self, n, p, seed, t, cap, found):
        # cap is the fewest nodes the search needs on this input.
        g = gen_random(n, p, seed)
        wit = find_halfgraph(g, t, cap_nodes=cap)
        assert (wit is not None) == found
        with pytest.raises(ScaleExceeded):
            find_halfgraph(g, t, cap_nodes=cap - 1)

    def test_validator_rejects_wrong_pattern(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            validate_halfgraph(g, HalfgraphWitness((0, 1), (2, 3)))


class TestExtraction:
    def test_base_case_order_one(self):
        g = star(4)  # leaf-to-center near-twin path, symdiff 5
        res = extract_halfgraph(g, [1, 0], 5, 1)
        assert isinstance(res, HalfgraphWitness)
        assert res.w == (0,)  # last path vertex
        assert res.u == (1,)  # smallest member of the surplus set
        validate_halfgraph(g, res)

    def test_surplus_too_small(self):
        g = complete_graph(3)
        with pytest.raises(ValueError, match="surplus set has"):
            extract_halfgraph(g, [0, 1], 2, 2)

    def test_not_a_near_twin_path(self):
        g = star(5)
        with pytest.raises(ValueError, match="near-twin"):
            extract_halfgraph(g, [1, 0], 0, 1)  # symdiff(1, 0) = 6 > 0

    @pytest.mark.parametrize("path", [[4], [-1, 3]])
    def test_path_vertex_out_of_range_rejected(self, path):
        # -1 and 3 name the same row, but -1 is no vertex.
        g = make_graph(4, [(3, 0), (3, 1), (3, 2)])
        with pytest.raises(ValueError, match="out of range"):
            extract_halfgraph(g, path, 1, 1)

    def test_halfgraph_gadget_extraction(self):
        t, k = 2, 1
        g = gen_halfgraph(16)
        # u-side endpoints: same NT_1 component, neighborhoods differ by 15
        assert symdiff(g, 0, 15) == 15 > h_bound(k, t)
        res = extract_halfgraph_for_pair(g, k, t, 0, 15)
        assert isinstance(res, HalfgraphWitness)
        validate_halfgraph(g, res)
        assert len(res.u) == t

    def test_order_three_extraction(self):
        t, k = 3, 1
        need_order = h_bound(k, t) + 2  # surplus beyond the closeness bound
        g = gen_halfgraph(need_order)
        res = extract_halfgraph_for_pair(g, k, t, 0, need_order - 1)
        assert isinstance(res, HalfgraphWitness)
        validate_halfgraph(g, res)

    def test_pair_without_surplus(self):
        g = complete_graph(6)
        with pytest.raises(ValueError, match="neither one-sided difference"):
            extract_halfgraph_for_pair(g, 2, 2, 0, 1)

    @pytest.mark.parametrize("u, v", [(0, 9), (-1, 0)])
    def test_pair_vertex_out_of_range_rejected(self, u, v):
        g = make_graph(4, [(3, 0), (3, 1), (3, 2)])
        with pytest.raises(ValueError, match="out of range"):
            extract_halfgraph_for_pair(g, 1, 1, u, v)


class TestClosenessProperty:
    # In graphs without an order-t half-graph, same-component near-twin
    # pairs stay h_bound-close; every observed violation must yield a
    # valid witness via extraction.
    def test_halfgraph_free_graphs_are_close(self):
        corpus = [
            complete_graph(6),
            complete_bipartite(4, 7),
            star(8),
            make_graph(9),
            disjoint_union(complete_graph(4), complete_graph(4)),
            disjoint_union(star(5), complete_bipartite(3, 3)),
        ]
        checked = 0
        for g in corpus:
            for k in (0, 1, 2):
                for t in (2, 3):
                    if find_halfgraph(g, t) is not None:
                        continue
                    bound = h_bound(k, t)
                    for comp in neartwin_view(g, k).components:
                        for i, u in enumerate(comp):
                            for v in comp[i + 1 :]:
                                assert symdiff(g, u, v) <= bound
                                checked += 1
        assert checked > 0

    def test_violations_yield_witnesses(self):
        rng = random.Random(8)
        produced = 0
        for order in (16, 18, 20):
            g = gen_halfgraph(order)
            for k, t in [(1, 2), (2, 2)]:
                view = neartwin_view(g, k)
                for comp in view.components:
                    for i, u in enumerate(comp):
                        for v in comp[i + 1 :]:
                            if symdiff(g, u, v) > h_bound(k, t):
                                res = extract_halfgraph_for_pair(g, k, t, u, v)
                                assert isinstance(res, HalfgraphWitness)
                                validate_halfgraph(g, res)
                                produced += 1
        assert produced > 0

    def test_nt_path_matches_scan_oracle(self):
        corpus = (
            seeded_random_graphs(12, 12, 64)
            + seeded_dense_graphs(8, 14, 65)
            + [gen_halfgraph(6), gen_halfgraph(9)]
        )
        found = 0
        for g in corpus:
            for k in (0, 1, 2, 5):
                for u in range(g.n):
                    for v in range(g.n):
                        path = nt_path(g, k, u, v)
                        assert path == nt_path_scan(g, k, u, v)
                        found += path is not None and len(path) > 2
        assert found > 0

    def test_nt_path_exists_within_component(self):
        g = gen_halfgraph(6)
        view = neartwin_view(g, 1)
        comp = next(c for c in view.components if 0 in c)
        for v in comp:
            assert nt_path(g, 1, 0, v) is not None
