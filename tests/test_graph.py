import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treerank.errors import ScaleExceeded
from treerank.generators import gen_halfgraph, gen_random, gen_tree, subdivide, tree_order
from treerank.graph import (
    Graph,
    ParseError,
    _parse_canonical,
    _parse_lines,
    flip,
    flip_parts,
    make_graph,
    parse_graph,
    shortest_path,
    write_graph,
)
from treerank.halfgraph import HalfgraphWitness
from treerank.ranking import RankAssignment, SearchStats
from treerank.shallow import Embedding
from treerank.sparsify import s_flip, s_flip_classes

from helpers import (
    bfs_distances,
    closed_ball,
    complete_graph,
    flip_pairwise,
    induced,
    path_graph,
    random_flip_spec,
    star,
)


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

    def test_isolated_vertices_share_one_empty_row(self):
        # One set and one frozenset per vertex took seconds at this size.
        start = time.perf_counter()
        g = parse_graph("p 1000000 0\n")
        elapsed = time.perf_counter() - start
        assert g.n == 1_000_000 and g.edge_count() == 0 and g.adj[999_999] == frozenset()
        assert elapsed < 1.0, elapsed

    @settings(max_examples=80)
    @given(st.integers(min_value=0, max_value=8),
           st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=24))
    def test_rows_equal_one_set_per_vertex(self, n, pairs):
        # Repeated pairs, in either order, are kept: make_graph merges them.
        edges = [(u, v) for u, v in pairs if u != v and u < n and v < n]
        rows = [set() for _ in range(n)]
        for u, v in edges:
            rows[u].add(v)
            rows[v].add(u)
        want = Graph(n, tuple(frozenset(row) for row in rows), {})
        assert make_graph(n, edges) == want
        unique = sorted({(min(u, v), max(u, v)) for u, v in edges})
        text = f"p {n} {len(unique)}\n" + "".join(f"e {v} {u}\n" for u, v in unique)
        assert parse_graph(text) == want


def _outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, ScaleExceeded) as e:
        return type(e), str(e), getattr(e, "line_no", None)


# Characters inserted into canonical texts: comment and whitespace
# characters that split fields or lines for the line parser, and digits,
# signs and tags that int() or the tag test read.
NOISE = ["#", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u2028", "\u3000",
         " ", "\n", "0", "1", "9", "\u0663", "\uff17", "-", "+", "_", "e", "l", "p", "x"]
NAMES = ["R", "F", "l", "e", "p", "7", "\u00e9"]


def _canonical_text(rng):
    n = rng.randint(0, 7)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    preds = {name: [v for v in range(n) if rng.random() < 0.5]
             for name in rng.sample(NAMES, rng.randint(0, 3))}
    return write_graph(make_graph(n, edges, preds))


def _mutate(rng, text):
    kind = rng.randrange(10)
    pos = rng.randint(0, len(text))
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    if kind == 8:  # one field replaced, removed or added
        fields = lines[i].split(" ")
        j = rng.randrange(len(fields) + 1)
        fields[j : j + rng.randint(0, 1)] = [rng.choice(["-1", "0", "1", "2", "3", "7", "e", "l", "p", ""])]
        lines[i] = " ".join(fields)
        return "\n".join(lines)
    if kind == 9:  # two lines joined by a space
        return "\n".join(lines[:i] + [" ".join(lines[i : i + 2])] + lines[i + 2 :])
    if kind == 0:
        return text[:pos] + rng.choice(NOISE) + text[pos:]
    if kind == 7:  # may turn one edge into a copy of another
        return text[:pos] + rng.choice(NOISE) + text[pos + 1:]
    if kind == 1:
        return text[:pos] + text[pos + 1:]
    if kind == 2:
        return "\n".join(lines[: i + 1] + lines[i:])
    if kind == 3:
        rng.shuffle(lines)
        return "\n".join(lines)
    if kind == 4:
        return text.rstrip("\n")
    if kind == 5:
        spaces = [i for i, c in enumerate(text) if c == " "] or [pos]
        i = rng.choice(spaces)
        return text[:i] + " " + text[i:]
    return text + f"l {rng.choice(['', '#', '#x', 'a#'])} {rng.randint(0, 3)}\n"


def test_canonical_fast_path_agrees_with_the_line_parser():
    """Mutated canonical texts: parse_graph and the line parser return
    equal graphs, or raise the same error with the same text and line."""
    rng = random.Random(20261020)
    taken = 0
    for _ in range(6000):
        text = _canonical_text(rng)
        assert _parse_canonical(text) == _parse_lines(text)
        for _ in range(rng.randint(1, 3)):
            text = _mutate(rng, text)
        assert _outcome(parse_graph, text) == _outcome(_parse_lines, text), repr(text)
        taken += _parse_canonical(text) is not None
    assert taken > 100  # the bulk reader accepted some mutated texts


@pytest.mark.parametrize("text", [
    "p 3 1\ne 0 1\nx\n",  # a line of one field after the edges
    "p 3 2\ne 0 1 e 0 2\ne 1 2\n",  # two edges on one line
    "p 3 1\ne 0 \n3\n",  # a trailing space
    "p 3 1\ne 0 1\ne 1 2\n",  # more edge lines than the header counts
    "p 3 2\ne 0 1\ne 0 1\n",  # a duplicate edge
    "p 3 1\ne 1 0\n",  # larger endpoint first, which is valid
    "p 2 1\ne 0 0\n",
    "p 3 1\ne -1 2\n",
    "p 3 1\ne 0 3\n",
    "p 3 0\nl R -1\n",
    "p 3 0\nl R 3\n",
    "p 3 0\nl R\n",  # no members, which is valid
    "p 3 0\nl  1\n",  # a double space: the name is 1
    "p 3 0\nl a\rb 1\n",  # \r ends a line
    "p 3 0\nl a\x1fb 1\n",  # \x1f splits fields but ends no line
    "p 3 0\nl R 1 # 2\n",
    "p 3 0\ne 0 1\n",
    "p 3 1\nl R 1\ne 0 1\n",  # an edge after a predicate, which is valid
    "p 2000000 0\n",
    "p 3 1\np 3 1\ne 0 1\n",
])
def test_bulk_reader_refuses_texts_off_the_canonical_layout(text):
    assert _parse_canonical(text) is None
    assert _outcome(parse_graph, text) == _outcome(_parse_lines, text)


class TestWrite:
    def test_single_vertex(self):
        assert write_graph(make_graph(1)) == "p 1 0\n"

    def test_roundtrip_tree(self):
        g = gen_tree(2, 2)
        assert parse_graph(write_graph(g)) == g

    def test_roundtrip_labeled(self):
        g = make_graph(3, [(0, 1)], {"R": [2]})
        assert parse_graph(write_graph(g)) == g

    @pytest.mark.parametrize("name", ["", "a b", "#x", "a\tb", "x\r"])
    def test_predicate_name_that_cannot_round_trip_is_refused(self, name):
        g = make_graph(2, [(0, 1)], {name: [0]})
        with pytest.raises(ValueError, match="predicate name"):
            write_graph(g)

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


class TestRecords:
    def test_frozen_fields_refuse_assignment_and_deletion(self):
        g = path_graph(3)
        with pytest.raises(AttributeError):
            g.n = 4
        with pytest.raises(AttributeError):
            del g.adj
        assert g == path_graph(3)
        assert g.sorted_neighbors(1) == (0, 2)  # cached_property still writes __dict__

    def test_arguments_follow_field_order_with_defaults(self):
        adj = (frozenset({1}), frozenset({0}))
        assert Graph(2, adj) == Graph(adj=adj, n=2) == Graph(2, adj, {})
        with pytest.raises(TypeError):
            Graph(2)
        with pytest.raises(TypeError):
            Graph(2, adj, {}, None)
        with pytest.raises(TypeError):
            Graph(2, adj, n=2)

    def test_default_factory_gives_each_record_its_own_dict(self):
        a, b = Graph(0, ()), Graph(0, ())
        assert a.predicates == {} and a.predicates is not b.predicates
        ra, rb = RankAssignment(1, 1, ()), RankAssignment(1, 1, ())
        assert ra.witnesses == {} and ra.witnesses is not rb.witnesses

    def test_equal_records_hash_equal(self):
        a = Embedding({0: 1}, {(0, 1): (1, 2)})
        assert a == Embedding({0: 1}, {(0, 1): (1, 2)})
        assert RankAssignment(1, 2, (1, 1)) == RankAssignment(1, 2, (1, 1))
        k = HalfgraphWitness((0, 1), (2, 3))
        assert hash(k) == hash(HalfgraphWitness((0, 1), (2, 3))) == hash(((0, 1), (2, 3)))
        assert k != ((0, 1), (2, 3))

    def test_mutable_record_counts_and_is_unhashable(self):
        stats = SearchStats()
        stats.record(5)
        assert stats == SearchStats(1, 5, 5) and stats != SearchStats()
        with pytest.raises(TypeError):
            hash(stats)

    def test_repr_names_every_field(self):
        assert repr(SearchStats(2, 9, 7)) == "SearchStats(searches=2, nodes=9, max_nodes_per_search=7)"
        assert repr(make_graph(2, [(0, 1)], {"R": [1]})) == (
            "Graph(n=2, adj=(frozenset({1}), frozenset({0})), predicates={'R': frozenset({1})})"
        )


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
        assert g.n == sum(m**i for i in range(d + 1)) == tree_order(d, m, g.n)
        assert g.edge_count() == g.n - 1

    def test_tree_order_stops_past_the_limit(self):
        # Depth 10**9 is never summed out: the count stops one level past
        # the limit (1 + 2 + ... + 512 = 1023 > 1000).
        assert tree_order(10**9, 2, 1000) == 1023
        assert tree_order(3, 10, 1110) == 1111
        assert tree_order(10**9, 1, 5) == 10**9 + 1
        with pytest.raises(ValueError):
            tree_order(-1, 2, 5)
        with pytest.raises(ValueError):
            tree_order(2, 0, 5)

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

    def test_subdivide_refuses_a_negative_count_with_or_without_edges(self):
        for g in (make_graph(3), make_graph(3, [(0, 1)])):
            with pytest.raises(ValueError, match="subdivision counts must be nonnegative"):
                subdivide(g, -1)

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

    def test_shortest_path_matches_a_plain_bfs(self):
        # Whole layers expanded in sorted order, each vertex keeping its
        # first discoverer; the path to the first target discovered.
        def plain(g, v, targets, r, deleted):
            parent, layer = {v: None}, [v]
            for _ in range(r):
                nxt = []
                for u in layer:
                    for w in sorted(g.adj[u]):
                        if w not in parent and w not in deleted:
                            parent[w] = u
                            nxt.append(w)
                            if w in targets:
                                path = [w]
                                while parent[path[-1]] is not None:
                                    path.append(parent[path[-1]])
                                return path[::-1]
                layer = nxt
            return None

        rng = random.Random(3)
        found = 0
        for trial in range(600):
            g = gen_random(rng.randrange(1, 16), rng.random() * 0.5, trial)
            v = rng.randrange(g.n)
            targets = {u for u in range(g.n) if rng.random() < 0.3}
            deleted = {u for u in range(g.n) if rng.random() < 0.3}
            r = rng.randrange(5)
            path = shortest_path(g, v, targets, r, deleted)
            assert path == plain(g, v, targets, r, deleted), trial
            found += path is not None
        assert found > 100

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

    def test_flip_parts_matches_pairwise_oracle(self):
        rng = random.Random(7)
        for trial in range(150):
            g = gen_random(rng.randrange(1, 13), rng.random(), trial)
            parts, pairs = random_flip_spec(rng, g.n)
            if trial % 2:
                parts = {i: frozenset(p) for i, p in enumerate(parts)}
            rows = flip_parts(g.adj, parts, pairs)
            assert Graph(g.n, tuple(rows), g.predicates) == flip_pairwise(g, parts, pairs), (trial, pairs)
            named = {v for p in (parts.values() if trial % 2 else parts) for v in p}
            assert all(rows[v] is g.adj[v] for v in range(g.n) if v not in named)
        g = gen_random(6, 0.5, 1)
        assert flip_parts(g.adj, [(0, 1), (2,)], []) == list(g.adj)

    def test_s_flip_matches_pairwise_oracle(self):
        rng = random.Random(11)
        for trial in range(80):
            g = gen_random(rng.randrange(1, 11), rng.random(), trial)
            s = [v for v in range(g.n) if rng.random() < 0.3]
            classes = s_flip_classes(g, s)
            pairs = [(rng.randrange(len(classes)), rng.randrange(len(classes))) for _ in range(rng.randrange(6))]
            pairs += pairs[: rng.randrange(3)] + [(j, i) for i, j in pairs[:1]]
            assert s_flip(g, s, pairs) == flip_pairwise(g, classes, pairs), (trial, s, pairs)

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

    def test_induced_ids_follow_sorted_order(self):
        # frozenset({1, 2, 8}) iterates 8 first; the new ids still follow
        # the old ones' order.
        g = make_graph(9, [(1, 8), (2, 8)], {"R": [8]})
        sub, remap = induced(g, {8, 1, 2})
        assert remap == {1: 0, 2: 1, 8: 2}
        assert sub.edges() == [(0, 2), (1, 2)] and sub.predicates == {"R": frozenset({2})}

    def test_induced_remaps_predicates(self):
        g = make_graph(4, [(1, 3)], {"R": [1, 2]})
        sub, remap = induced(g, {1, 3})
        assert sub.predicates == {"R": frozenset({remap[1]})}
