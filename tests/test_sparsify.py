import math
import random
import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treerank.errors import ScaleExceeded
from treerank.graph import gen_halfgraph, gen_random, gen_tree, make_graph
from treerank.labd import ClassSpec, const_fn, no_ladder_bound
from treerank.neartwin import h_bound, symdiff
from treerank.sparsify import (
    RecoverError,
    build_sparsifier,
    classify_heavy,
    colex_subsets,
    component_partition,
    recover,
    recover_graph,
    sflip_driver,
)

from helpers import (
    bfs_distances,
    complete_bipartite,
    complete_graph,
    cycle,
    disjoint_union,
    light_parts,
    nt_components_allpairs,
    nt_edges_allpairs,
    pair_density,
    path_graph,
    recover_graph_pairwise,
    seeded_dense_graphs,
    seeded_random_graphs,
    sparse_graph,
    star,
    validate_sparsified,
)


def blowup(base, size: int, drop_matching: bool = False):
    """Replace each base vertex by `size` twins; adjacent classes get all
    cross edges (minus a perfect matching when drop_matching)."""
    edges = []
    for u, v in base.edges():
        for i in range(size):
            for j in range(size):
                if drop_matching and i == j:
                    continue
                edges.append((u * size + i, v * size + j))
    return make_graph(base.n * size, edges)


def mixed_degree_graph(n: int, seed: int):
    """Chung-Lu graph with expected degrees 0..12, then a quarter of the
    vertices rewired to copy another vertex's row, up to two toggles."""
    rng = random.Random(seed)
    weight = [rng.randint(0, 12) for _ in range(n)]
    total = sum(weight)
    adj = [set() for _ in range(n)]
    for u, v in combinations(range(n), 2):
        if rng.random() < weight[u] * weight[v] / total:
            adj[u].add(v)
            adj[v].add(u)
    for v in rng.sample(range(n), n // 4):
        row = adj[rng.randrange(n)] ^ set(rng.sample(range(n), rng.randint(0, 2)))
        row.discard(v)
        for w in adj[v] - row:
            adj[w].discard(v)
        for w in row - adj[v]:
            adj[w].add(v)
        adj[v] = row
    return make_graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


class TestComponentPartition:
    def test_complete_bipartite_sides(self):
        p = component_partition(complete_bipartite(7, 7), 0)
        assert p.parts == (tuple(range(7)), tuple(range(7, 14)))

    def test_cycle_singletons(self):
        p = component_partition(cycle(10), 0)
        assert p.parts == tuple((v,) for v in range(10))

    def test_clique_single_part(self):
        p = component_partition(complete_graph(11), 2)
        assert p.parts == (tuple(range(11)),)

    def test_matches_view_components(self):
        for g in seeded_random_graphs(40, 12, 59):
            for k in range(4):
                assert component_partition(g, k).parts == nt_components_allpairs(g, k)

    def test_dense_graphs_match_oracle(self):
        # A vertex of degree above k+1 draws its candidates from k+1
        # of its neighbors only.
        filtered = 0
        for g in seeded_dense_graphs(60, 24, 67):
            for k in range(13):
                assert component_partition(g, k).parts == nt_components_allpairs(g, k)
                filtered += any(g.degree(v) > k + 1 for v in range(g.n))
        assert filtered > 600

    def test_matches_oracle_on_3000_graphs(self):
        sparse = seeded_random_graphs(1500, 20, 71)
        dense = seeded_dense_graphs(1500, 20, 73)
        for i, g in enumerate(sparse + dense):
            k = i % 13
            assert component_partition(g, k).parts == nt_components_allpairs(g, k), (i, k)

    def test_rows_on_both_sides_of_the_dense_threshold(self):
        # Rows of degree >= n/64 are compared by popcount, the others by
        # set xor; at n = 256 the threshold is degree 4, and the planted
        # near-twins pair rows on either side of it.
        n = 256
        for seed in (83, 89):
            g = mixed_degree_graph(n, seed)
            degs = [g.degree(v) for v in range(n)]
            assert min(degs) < n / 64 <= max(degs)
            for k in range(13):
                assert component_partition(g, k).parts == nt_components_allpairs(g, k), (seed, k)
            crossing = [
                (u, v) for u, row in enumerate(nt_edges_allpairs(g, 4)) for v in row
                if (64 * degs[u] >= n) != (64 * degs[v] >= n)
            ]
            assert crossing, seed

    def test_peak_memory_on_a_large_sparse_graph(self):
        # A sparse row gets no n-bit int: one int per row would take
        # 20,000 * 20,000 bits, about 50 MB, at n = 20,000.
        g = sparse_graph(20_000, 30_000, 3)
        for k in (0, 6):
            tracemalloc.start()
            try:
                component_partition(g, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 10_000_000, (k, peak)

    def test_low_degree_pooling(self):
        g = disjoint_union(make_graph(3), path_graph(2), star(1))
        # isolated vertices, one K2, one more K2: with k=2 everything of
        # degree <= 1 pools together
        p = component_partition(g, 2)
        assert len(p.parts) == 1


class TestClassifyHeavy:
    def test_complete_bipartite_mutually_heavy(self):
        g = complete_bipartite(7, 7)
        p = component_partition(g, 0)
        hc = classify_heavy(g, p, 1)
        assert hc.mutually_heavy == frozenset({(0, 1)})
        assert hc.heavy == frozenset({0, 1})

    def test_clique_self_heavy(self):
        g = complete_graph(11)
        p = component_partition(g, 2)
        hc = classify_heavy(g, p, 2)
        assert hc.mutually_heavy == frozenset({(0, 0)})

    def test_cycle_nothing_heavy(self):
        g = cycle(10)
        hc = classify_heavy(g, component_partition(g, 0), 1)
        assert not hc.heavy and not hc.mutually_heavy

    def test_h_below_one_rejected(self):
        g = cycle(10)
        with pytest.raises(ValueError):
            classify_heavy(g, component_partition(g, 0), 0)

    def test_light_parts_exposed(self):
        g = star(3)
        p = component_partition(g, 0)
        assert p.parts == ((0,), (1, 2, 3))
        assert light_parts(g, p, 1) == frozenset({1})  # only the leaves part


class TestPairDensity:
    def test_complete_bipartite_dense(self):
        g = complete_bipartite(7, 7)
        rep = pair_density(g, range(7), range(7, 14), 0)
        assert rep.verdict == "dense" and rep.preconditions_ok

    def test_disconnected_sparse(self):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        rep = pair_density(g, range(3), range(3, 6), 0)
        assert rep.verdict == "sparse"

    def test_irregular_mixed_with_violated_preconditions(self):
        edges = [(0, v) for v in range(6, 12)]  # one hub, five silent
        g = make_graph(12, edges)
        rep = pair_density(g, range(6), range(6, 12), 0)
        assert rep.verdict == "mixed"
        assert not rep.preconditions_ok and rep.notes


class TestBuild:
    def test_complete_bipartite_becomes_tree(self):
        g = complete_bipartite(7, 7)
        sg = build_sparsifier(g, 0, 1)
        out = sg.graph
        assert out.n == 16 and out.edge_count() == 15
        # connected with n-1 edges: a tree
        assert len(bfs_distances(out, 0)) == out.n
        assert sg.flipped_pairs == ((0, 1),)
        validate_sparsified(sg)

    def test_clique_becomes_star(self):
        g = complete_graph(11)
        sg = build_sparsifier(g, 2, 2)
        out = sg.graph
        assert out.n == 12 and out.edge_count() == 11
        assert out.degree(11) == 11
        assert out.predicates["R"] == frozenset({11})
        assert out.predicates["F"] == frozenset({11})
        validate_sparsified(sg)

    def test_cycle_unchanged(self):
        g = cycle(10)
        sg = build_sparsifier(g, 0, 1)
        assert sg.graph == g and not sg.apex

    def test_apex_ids_appended(self):
        g = complete_bipartite(7, 7)
        sg = build_sparsifier(g, 0, 1)
        assert sorted(sg.apex.values()) == [14, 15]

    def test_reserved_predicates_rejected(self):
        g = make_graph(3, [], {"R": [0]})
        with pytest.raises(ValueError, match="reserved"):
            build_sparsifier(g, 0, 1)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_sparsifier(cycle(4), -1, 1)
        with pytest.raises(ValueError):
            build_sparsifier(cycle(4), 0, 0)


class TestRoundTrip:
    def test_structured(self):
        cases = [
            complete_bipartite(7, 7),
            complete_graph(11),
            cycle(10),
            gen_tree(3, 2),
            gen_halfgraph(6),
            blowup(path_graph(3), 12, drop_matching=True),
            disjoint_union(complete_graph(12), complete_bipartite(8, 8)),
        ]
        for g in cases:
            for k in range(3):
                for h in (1, 2, 5):
                    sg = build_sparsifier(g, k, h)
                    assert recover(sg) == g

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10),
        st.integers(0, 2**28 - 1),
        st.integers(0, 3),
        st.sampled_from([1, 2, 5]),
    )
    def test_random_roundtrip(self, n, mask, k, h):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        g = make_graph(n, edges, {"Q": [v for v in range(n) if v % 3 == 0]} if n else {})
        sg = build_sparsifier(g, k, h)
        assert recover(sg) == g

    def test_recover_rejects_double_marking(self):
        g = make_graph(4, [(0, 2), (0, 3)], {"R": [2, 3]})
        with pytest.raises(RecoverError, match="marked neighbors"):
            recover_graph(g)

    def test_recover_rejects_f_outside_r(self):
        g = make_graph(3, [(0, 1)], {"R": [1], "F": [2]})
        with pytest.raises(RecoverError, match="escape"):
            recover_graph(g)

    def test_recover_general_graph_remaps(self):
        # marked vertex in the middle of the id range
        g = make_graph(3, [(0, 1), (1, 2)], {"R": [1]})
        out, remap = recover_graph(g)
        assert out.n == 2 and remap == {0: 0, 2: 1}
        assert out.edge_count() == 0

    def test_rows_equal_pairwise_reference(self):
        # Marked graphs with apexes at random ids; some vertices get a
        # second mark and some F marks fall outside R on purpose, so both
        # RecoverError messages are compared too.
        rng = random.Random(303)
        outcomes = {"ok": 0, "escape": 0, "marked neighbors": 0}
        for _ in range(400):
            n = rng.randint(0, 16)
            r_set = [v for v in range(n) if rng.random() < 0.25]
            kept = [v for v in range(n) if v not in r_set]
            double = rng.random() < 0.15
            edges = set()
            for x in kept:
                if r_set and rng.random() < 0.8:
                    marks = rng.sample(r_set, min(len(r_set), 2 if double else 1))
                    edges.update((x, a) for a in marks)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for u, v in pairs:
                if (u in r_set) != (v in r_set):
                    continue  # apex-to-kept edges are the marks above
                if rng.random() < 0.35:
                    edges.add((u, v))
            f_set = [a for a in r_set if rng.random() < 0.5]
            if kept and rng.random() < 0.1:
                f_set.append(rng.choice(kept))
            g = make_graph(n, edges, {
                "R": r_set,
                "F": f_set,
                "Q": [v for v in range(n) if v % 3 == 0],
            })
            try:
                want = recover_graph_pairwise(g)
            except RecoverError as e:
                with pytest.raises(RecoverError) as got:
                    recover_graph(g)
                assert str(got.value) == str(e)
                outcomes["escape" if "escape" in str(e) else "marked neighbors"] += 1
                continue
            assert recover_graph(g) == want
            outcomes["ok"] += 1
        assert min(outcomes.values()) >= 10, outcomes

    def test_rows_equal_pairwise_on_sparsified(self):
        for g in seeded_random_graphs(30, 40, 17) + [complete_bipartite(9, 9), complete_graph(13)]:
            g = make_graph(g.n, g.edges(), {"Q": range(0, g.n, 2)})
            for k, h in [(0, 1), (2, 1), (3, 2)]:
                sg = build_sparsifier(g, k, h)
                assert recover_graph(sg.graph) == recover_graph_pairwise(sg.graph)

    def test_validate_detects_tampering(self):
        sg = build_sparsifier(complete_bipartite(7, 7), 0, 1)
        tampered = sg.graph
        bad = make_graph(
            tampered.n,
            [e for e in tampered.edges() if e != (0, 14)],
            tampered.predicates,
        )
        broken = type(sg)(bad, sg.apex, sg.flipped_pairs, sg.original_n, sg.partition, sg.h)
        with pytest.raises(ValueError):
            validate_sparsified(broken)


class TestConditionalGuarantees:
    def _parts_pairwise_near(self, g, partition, h):
        for part in partition.parts:
            for i, u in enumerate(part):
                for v in part[i + 1 :]:
                    if symdiff(g, u, v) > h:
                        return False
        return True

    def test_flip_degree_bound(self):
        # Wherever the dichotomy hypotheses hold, a flipped pair leaves
        # every vertex with at most 2h cross neighbors.
        cases = [
            (complete_bipartite(7, 7), 0, 1),
            (complete_graph(11), 2, 2),
            (blowup(path_graph(2), 12, drop_matching=True), 2, 2),
            (blowup(complete_graph(3), 7), 0, 1),
        ]
        checked = 0
        for g, k, h in cases:
            sg = build_sparsifier(g, k, h)
            assert sg.flipped_pairs
            for i, j in sg.flipped_pairs:
                a = sg.partition.parts[i]
                b = sg.partition.parts[j]
                rep = pair_density(g, a, b, h)
                if not rep.preconditions_ok:
                    continue
                for u in a:
                    assert len(sg.graph.adj[u] & frozenset(b) - {u}) <= 2 * h
                for v in b:
                    assert len(sg.graph.adj[v] & frozenset(a) - {v}) <= 2 * h
                checked += 1
        assert checked >= 4

    def test_distance_contraction(self):
        # With every part pairwise h-near-twin and no heavy part light:
        # non-light same-part pairs sit at distance <= 2, distinct
        # mutually heavy parts at distance <= 3, and globally
        # dist_G <= 3 * dist_S(G).
        cases = [
            (complete_bipartite(7, 7), 0, 1),
            (complete_graph(11), 2, 2),
            (blowup(complete_graph(3), 7), 0, 1),
            (blowup(path_graph(3), 12, drop_matching=True), 2, 2),
            (cycle(10), 0, 1),
        ]
        for g, k, h in cases:
            sg = build_sparsifier(g, k, h)
            partition = sg.partition
            if not self._parts_pairwise_near(g, partition, h):
                continue
            lights = light_parts(g, partition, h)
            hc = classify_heavy(g, partition, h)
            if hc.heavy & lights:
                continue
            dist_g = {v: bfs_distances(g, v) for v in range(g.n)}
            for idx, part in enumerate(partition.parts):
                if idx in lights:
                    continue
                for i, u in enumerate(part):
                    for v in part[i + 1 :]:
                        assert dist_g[u].get(v, math.inf) <= 2
            for i, j in hc.mutually_heavy:
                if i == j:
                    continue
                for u in partition.parts[i]:
                    for v in partition.parts[j]:
                        assert dist_g[u].get(v, math.inf) <= 3
            for v in range(g.n):
                dist_s = bfs_distances(sg.graph, v)
                for u in range(g.n):
                    if u in dist_s:
                        assert dist_g[v].get(u, math.inf) <= 3 * dist_s[u]

    def test_no_small_bicliques_in_outputs(self):
        def has_k22(g):
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if len(g.adj[u] & g.adj[v]) >= 2:
                        return True
            return False

        for n in (7, 12, 20):
            sg = build_sparsifier(complete_bipartite(n, n), 0, 1)
            assert not has_k22(sg.graph)
        sg = build_sparsifier(blowup(complete_graph(3), 7), 0, 1)
        assert not has_k22(sg.graph)


class TestDerivedThresholds:
    def test_h_bound_at_excluded_half_graph_order(self):
        # excluded half-graph order for (k2=0, m2=2) is 3; the closeness
        # bound at k3=0 is then 2*g(4,0,3) = 40
        assert h_bound(0, no_ladder_bound(0, 2)) == 40


class TestSflipDriver:
    def test_zero_budget_reduces_to_plain_build(self):
        g = cycle(10)
        res = sflip_driver(g, 0, 0, 1, ClassSpec(const_fn(0), const_fn(2)))
        assert res is not None
        assert res.s == () and res.flip_spec == ()
        assert res.flipped_graph == g
        assert recover(res.sparsified) == g

    def test_distortion_instance(self):
        # complete bipartite 7+7 plus a hub adjacent to everything; some
        # single-vertex S admits a flip whose sparsification is accepted.
        g = make_graph(
            15,
            [(i, 7 + j) for i in range(7) for j in range(7)]
            + [(14, v) for v in range(14)],
        )
        verifier = ClassSpec(const_fn(2), const_fn(3))
        res = sflip_driver(g, 1, 0, 1, verifier)
        assert res is not None
        # frozen first hit of the canonical enumeration order
        assert res.s == (0,)
        assert res.flip_spec == ((1, 2),)
        assert recover(res.sparsified) == res.flipped_graph
        from treerank.labd import labd_check

        assert labd_check(res.sparsified.graph, verifier).ok
        # the hub-isolating candidate is also a valid (later) success
        from treerank.graph import s_flip, s_flip_classes

        classes = s_flip_classes(g, {14})
        assert classes == [(14,), tuple(range(14))]
        isolated = s_flip(g, {14}, [(0, 1)])
        sg = build_sparsifier(isolated, 0, 1)
        assert labd_check(sg.graph, verifier).ok
        assert recover(sg) == isolated

    def test_colex_subsets_ascend_by_bitmask(self):
        for n in range(9):
            for s in range(4):
                expected = sorted(
                    (c for size in range(s + 1) for c in combinations(range(n), size)),
                    key=lambda c: sum(1 << v for v in c),
                )
                assert list(colex_subsets(n, s)) == expected

    def test_candidate_cap_stops_before_the_subsets_are_listed(self):
        # C(200, <=3) is 1.3 million subsets; only the first is visited.
        g = gen_random(200, 2 / 200, 81)
        t0 = time.perf_counter()
        with pytest.raises(ScaleExceeded):
            sflip_driver(g, 3, 0, 1, ClassSpec(const_fn(0), const_fn(0)), cap_candidates=1)
        assert time.perf_counter() - t0 < 0.5

    def test_exhausted_enumeration_returns_none(self):
        g = path_graph(3)
        res = sflip_driver(g, 0, 0, 1, ClassSpec(const_fn(0), const_fn(0)))
        assert res is None
