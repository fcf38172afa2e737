import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treerank.graph import (
    Graph,
    ParseError,
    closed_ball,
    flip,
    gen_halfgraph,
    gen_random,
    gen_tree,
    induced,
    make_graph,
    parse_graph,
    s_flip,
    s_flip_classes,
    subdivide,
    write_graph,
)

from helpers import bfs_distances, complete_graph, path_graph, star


@st.composite
def graphs(draw, max_n=8, with_predicates=False):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    preds = {}
    if with_predicates and n:
        r_mask = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        preds["R"] = [v for v in range(n) if r_mask >> v & 1]
    return make_graph(n, edges, preds)


class TestParse:
    def test_minimal(self):
        g = parse_graph("p 2 1\ne 0 1\n")
        assert g.n == 2 and g.edges() == [(0, 1)]

    def test_edgeless(self):
        g = parse_graph("p 3 0")
        assert g.n == 3 and g.edge_count() == 0

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop") as ei:
            parse_graph("p 2 1\ne 0 0")
        assert ei.value.line_no == 2

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError, match="duplicate edge") as ei:
            parse_graph("p 2 2\ne 0 1\ne 1 0")
        assert ei.value.line_no == 3

    def test_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_graph("p 2 1\ne 0 2")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_graph("e 0 1")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError, match="declares"):
            parse_graph("p 2 2\ne 0 1")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="unknown directive"):
            parse_graph("p 1 0\nq 0")

    def test_comments_and_labels(self):
        g = parse_graph("# hello\np 3 1  # trailing\ne 0 1\nl R 0 2\nl R 1\n")
        assert g.predicates == {"R": frozenset({0, 1, 2})}

    def test_predicate_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_graph("p 2 0\nl R 5")


class TestWrite:
    def test_single_vertex(self):
        assert write_graph(make_graph(1)) == "p 1 0\n"

    def test_roundtrip_tree(self):
        g = gen_tree(2, 2)
        assert parse_graph(write_graph(g)) == g

    def test_roundtrip_labeled(self):
        g = make_graph(3, [(0, 1)], {"R": [2]})
        assert parse_graph(write_graph(g)) == g

    @settings(max_examples=60)
    @given(graphs(with_predicates=True))
    def test_roundtrip_any(self, g):
        back = parse_graph(write_graph(g))
        assert back == g and hash(back) == hash(g)


class TestHash:
    def test_equal_graphs_are_one_set_member_and_dict_key(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        by_make = make_graph(4, edges, {"R": [0], "F": [0, 3]})
        by_parse = parse_graph("p 4 3\ne 2 3\ne 0 1\ne 1 2\nl F 3 0\nl R 0\n")
        # Predicates inserted in the other order, rows built by hand.
        by_hand = Graph(4, by_make.adj, {"F": frozenset({0, 3}), "R": frozenset({0})})
        by_flips = flip(flip(by_make, {0, 1}, {2, 3}), {2, 3}, {0, 1})
        same = [by_make, by_parse, by_hand, by_flips]
        assert all(g == by_make for g in same)
        assert len(set(same)) == 1
        seen = {g: i for i, g in enumerate(same)}
        assert seen == {by_make: 3}
        other = make_graph(4, edges, {"R": [0]})
        assert len({by_make, other}) == 2 and other not in seen


class TestGenerators:
    def test_tree_single(self):
        g = gen_tree(0, 5)
        assert g.n == 1 and g.edge_count() == 0

    def test_tree_star(self):
        g = gen_tree(1, 3)
        assert g.n == 4 and g.edge_count() == 3
        assert g.degree(0) == 3

    def test_tree_counts(self):
        g = gen_tree(2, 2)
        assert g.n == 7 and g.edge_count() == 6

    @given(st.integers(0, 3), st.integers(1, 3))
    def test_tree_count_formula(self, d, m):
        g = gen_tree(d, m)
        assert g.n == sum(m**i for i in range(d + 1))
        assert g.edge_count() == g.n - 1

    def test_subdivide_tree(self):
        g = subdivide(gen_tree(1, 2), 1)
        assert g.n == 5 and g.edge_count() == 4

    def test_subdivide_zero_is_identity(self):
        g = gen_tree(2, 2)
        assert subdivide(g, 0) == g

    def test_subdivide_edge_to_path(self):
        g = subdivide(make_graph(2, [(0, 1)]), 2)
        assert g.n == 4 and g.edge_count() == 3
        assert sorted(g.degree(v) for v in range(4)) == [1, 1, 2, 2]

    def test_subdivide_per_edge_counts(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        out = subdivide(g, {(0, 1): 0, (1, 2): 3})
        assert out.n == 6 and out.edge_count() == 5

    def test_halfgraph_small(self):
        assert gen_halfgraph(1).edges() == [(0, 1)]
        g2 = gen_halfgraph(2)
        assert g2.n == 4 and g2.edge_count() == 3
        assert gen_halfgraph(3).edge_count() == 6

    @given(st.integers(1, 6))
    def test_halfgraph_definition_scan(self, t):
        g = gen_halfgraph(t)
        assert g.edge_count() == t * (t + 1) // 2
        for i in range(1, t + 1):
            for j in range(1, t + 1):
                assert g.has_edge(i - 1, t + j - 1) == (i <= j)
        assert g.predicates["U"] == frozenset(range(t))
        assert g.predicates["W"] == frozenset(range(t, 2 * t))

    def test_random_extremes(self):
        assert gen_random(5, 0.0, 1).edge_count() == 0
        assert gen_random(5, 1.0, 1).edge_count() == 10

    def test_random_deterministic(self):
        assert gen_random(12, 0.4, 99) == gen_random(12, 0.4, 99)


class TestBallsFlipsSubgraphs:
    def test_ball_path(self):
        g = path_graph(3)
        assert closed_ball(g, 0, 1) == frozenset({0, 1})
        assert closed_ball(g, 0, 2) == frozenset({0, 1, 2})

    def test_ball_radius_zero(self):
        assert closed_ball(complete_graph(4), 2, 0) == frozenset({2})

    def test_ball_with_deletion(self):
        g = path_graph(3)
        assert closed_ball(g, 0, 2, frozenset({1})) == frozenset({0})

    def test_bfs_distances_agree_with_balls(self):
        g = make_graph(7, [(0, 1), (1, 2), (2, 3), (0, 4), (5, 6)])
        assert bfs_distances(g, 0) == {0: 0, 1: 1, 4: 1, 2: 2, 3: 3}
        for gr in (g, gen_random(15, 0.2, 8)):
            for v in range(gr.n):
                dist = bfs_distances(gr, v)
                for r in range(gr.n):
                    assert closed_ball(gr, v, r) == {u for u, d in dist.items() if d <= r}

    def test_flip_triangle(self):
        g = complete_graph(3)
        out = flip(g, {0}, {1, 2})
        assert out.edges() == [(1, 2)]

    def test_flip_involution_explicit(self):
        g = gen_random(7, 0.5, 3)
        assert flip(flip(g, {0, 1}, {4, 5}), {0, 1}, {4, 5}) == g

    def test_flip_self_pair(self):
        g = make_graph(4, [(0, 1)])
        out = flip(g, {0, 1, 2}, {0, 1, 2})
        assert out.edges() == [(0, 2), (1, 2)]

    def test_flip_overlap_rejected(self):
        with pytest.raises(ValueError, match="disjoint or equal"):
            flip(complete_graph(3), {0, 1}, {1, 2})

    @settings(max_examples=40)
    @given(graphs(max_n=7), st.integers(0, 1 << 7 - 1), st.integers(0, 1 << 7 - 1))
    def test_flip_involution(self, g, mask_a, mask_b):
        a = {v for v in range(g.n) if mask_a >> v & 1}
        b = {v for v in range(g.n) if mask_b >> v & 1}
        if a & b and a != b:
            b = b - a
        assert flip(flip(g, a, b), a, b) == g

    @settings(max_examples=40)
    @given(graphs(max_n=7))
    def test_flip_keeps_graph_simple(self, g):
        a = set(range(0, g.n, 2))
        out = flip(g, a, a)
        for v in range(out.n):
            assert v not in out.adj[v]
            for u in out.adj[v]:
                assert v in out.adj[u]

    def test_s_flip_empty_identity(self):
        g = gen_random(6, 0.5, 0)
        assert s_flip(g, set(), []) == g

    def test_s_flip_star_isolates_center(self):
        g = star(4)  # center 0
        classes = s_flip_classes(g, {0})
        assert classes[0] == (0,)
        leaves = classes.index((1, 2, 3, 4))
        out = s_flip(g, {0}, [(0, leaves)])
        assert out.degree(0) == 0 and out.edge_count() == 0

    def test_s_flip_involution(self):
        g = gen_random(8, 0.4, 5)
        spec = [(0, 1), (1, 1)]
        assert s_flip(s_flip(g, {2, 5}, spec), {2, 5}, spec) == g

    def test_s_flip_bad_class(self):
        with pytest.raises(ValueError, match="nonexistent class"):
            s_flip(star(3), {0}, [(0, 9)])

    def test_induced_full_is_identity(self):
        g = gen_random(6, 0.5, 2)
        sub, remap = induced(g, range(6))
        assert sub == g and remap == {v: v for v in range(6)}

    def test_delete_triangle_vertex(self):
        sub, remap = induced(complete_graph(3), {1, 2})
        assert sub.edges() == [(0, 1)] and remap == {1: 0, 2: 1}

    def test_induced_halfgraph_pair(self):
        g = gen_halfgraph(3)
        sub, remap = induced(g, {0, 3})  # u_1 and w_1
        assert sub.edge_count() == 1
        assert sub.predicates == {"U": frozenset({remap[0]}), "W": frozenset({remap[3]})}

    def test_induced_remaps_predicates(self):
        g = make_graph(4, [(1, 3)], {"R": [1, 2]})
        sub, remap = induced(g, {1, 3})
        assert sub.predicates == {"R": frozenset({remap[1]})}
