"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import random
import time
from itertools import product

import pytest

from treerank import fo
from treerank.generators import gen_halfgraph, gen_random, gen_tree, subdivide
from treerank.graph import flip, make_graph, shortest_path
from treerank.halfgraph import (
    HalfgraphWitness,
    extract_halfgraph_for_pair,
    find_halfgraph,
    g_bound,
    h_bound,
    validate_halfgraph,
)
from treerank.labd import no_ladder_bound
from treerank.neartwin import neartwin_view, symdiff
from treerank.ranking import (
    INF,
    SearchStats,
    compute_ranking,
    rank_order,
    separator_search,
)
from treerank.shallow import extract_shallow_tree, m_prime, validate_embedding, w_count
from treerank.sparsify import build_sparsifier, recover

from helpers import (
    backconnectivity,
    closed_ball,
    complete_bipartite,
    complete_graph,
    cycle,
    disjoint_union,
    flipped_blocks,
    pair_density,
    path_graph,
    rank_oracle,
    scol_bruteforce,
    seeded_random_graphs,
    separator_search_bruteforce,
    sparsified_flipped_blocks,
    star,
)


def _report(num: int, detail: str) -> None:
    print(f"PASS criterion {num}: {detail}")


def test_criterion_1_bound_arithmetic():
    t0 = time.time()
    assert [g_bound(3, 2, t) for t in (1, 2, 3)] == [3, 8, 21]
    assert h_bound(2, 2) == 16
    assert no_ladder_bound(2, 3) == 10
    for r in range(1, 5):
        for m in range(1, 6):
            assert m_prime(1, r, m) == m - 1
    assert time.time() - t0 < 5
    _report(1, "g/h/no-ladder/m-prime values exact")


def test_criterion_2_separator_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(202)
    graphs = seeded_random_graphs(210, 10, 11, min_n=2)
    compared = 0
    for g in graphs:
        for _ in range(3):
            v = rng.randrange(g.n)
            a = {u for u in range(g.n) if u != v and rng.random() < 0.35}
            r = rng.randint(1, 3)
            m = rng.randint(0, 3)
            fast = separator_search(g, v, a, r, m)
            slow = separator_search_bruteforce(g, v, a, r, m)
            assert (fast is None) == (slow is None), (g.edges(), v, a, r, m)
            if fast is not None:
                assert len(fast) <= m and v not in fast
                assert not closed_ball(g, v, r, fast) & (a - fast)
            compared += 1
    elapsed = time.time() - t0
    assert compared >= 600 and len(graphs) >= 200
    assert elapsed < 10
    _report(2, f"{compared} instances over {len(graphs)} graphs agree ({elapsed:.1f}s)")


def test_criterion_3_fixed_point_equivalence():
    t0 = time.time()
    rng = random.Random(303)
    graphs = seeded_random_graphs(105, 10, 29)
    params = [(1, 1), (2, 2), (1, 3), (3, 1), (2, 1)]
    for i, g in enumerate(graphs):
        r, m = params[i % len(params)]
        assert compute_ranking(g, r, m).ranks == rank_oracle(g, r, m), (i, r, m)
    elapsed = time.time() - t0
    assert elapsed < 30
    _report(3, f"{len(graphs)} graphs match the declarative fixed point ({elapsed:.1f}s)")


def _family_instances(d: int, m: int, r: int, rng: random.Random):
    """Subdivision-count assignments keeping every child inside its
    parent's radius-r ball (counts at most r-1)."""
    base = gen_tree(d, m + 1)
    for c in range(r):
        yield subdivide(base, c)
    if r > 1:
        counts = {e: rng.randrange(r) for e in base.edges()}
        yield subdivide(base, counts)


def test_criterion_4_rank_lower_bound_family():
    t0 = time.time()
    rng = random.Random(404)
    instances = 0
    for d in (1, 2, 3):
        for m in (1, 2, 3):
            for r in (1, 2):
                for g in _family_instances(d, m, r, rng):
                    ra = compute_ranking(g, r, m)
                    assert ra.ranks[0] >= d + 1, (d, m, r)
                    assert max(ra.ranks, default=0) > d
                    instances += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(4, f"root rank >= d+1 on {instances} tree instances ({elapsed:.1f}s)")


def test_criterion_5_constructive_extraction():
    t0 = time.time()
    rng = random.Random(505)
    graphs = []
    for d in (1, 2, 3):
        for m in (1, 2, 3):
            for r in (1, 2):
                graphs.extend(_family_instances(d, m, r, rng))
    graphs.extend(seeded_random_graphs(85, 14, 55))
    for i in range(15):
        graphs.append(gen_random(16 + i % 5, 0.85 + 0.02 * (i % 5), 900 + i))
    extracted = 0
    for g in graphs:
        for d, m, r in [(1, 2, 1), (1, 3, 2), (2, 2, 1), (3, 2, 1)]:
            mp = m_prime(d, r, m)
            ra = compute_ranking(g, r, mp)
            for v in range(g.n):
                if ra.ranks[v] > d:
                    emb = extract_shallow_tree(g, ra, v, d, m, r)
                    validate_embedding(g, emb, d, m, r)
                    assert emb.principal[0] == v
                    extracted += 1
    elapsed = time.time() - t0
    assert extracted > 50
    assert elapsed < 120
    _report(5, f"{extracted} extractions all validate ({elapsed:.1f}s)")


def test_criterion_6_order_bridge():
    t0 = time.time()
    corpus = seeded_random_graphs(40, 8, 67)
    corpus += [
        path_graph(6), cycle(7), star(6), complete_graph(5),
        gen_tree(2, 2), complete_bipartite(3, 4),
        disjoint_union(complete_graph(3), path_graph(4)),
    ]
    checked = 0
    for g in corpus:
        assert g.n <= 8
        for r in (1, 2):
            m = scol_bruteforce(g, r) - 1
            ra = compute_ranking(g, r, m)
            assert ra.all_finite(), (g.edges(), r, m)
            order = rank_order(ra)
            for v in range(g.n):
                assert backconnectivity(g, order, v, r) <= m
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(6, f"finite ranks and admissibility bound on {checked} instances ({elapsed:.1f}s)")


def test_criterion_7_near_twin_closeness():
    t0 = time.time()
    rng = random.Random(707)
    corpus = seeded_random_graphs(160, 14, 83)
    for i in range(140):
        kind = i % 7
        if kind == 0:
            corpus.append(complete_graph(rng.randint(2, 14)))
        elif kind == 1:
            a = rng.randint(1, 7)
            corpus.append(complete_bipartite(a, rng.randint(1, 14 - a)))
        elif kind == 2:
            corpus.append(star(rng.randint(1, 13)))
        elif kind == 3:
            corpus.append(make_graph(rng.randint(1, 14)))
        elif kind == 4:
            k2 = rng.randint(1, 7)
            corpus.append(make_graph(2 * k2, [(2 * i, 2 * i + 1) for i in range(k2)]))
        elif kind == 5:
            corpus.append(disjoint_union(complete_graph(rng.randint(2, 7)),
                                         star(rng.randint(1, 6))))
        else:
            corpus.append(cycle(rng.randint(3, 14)))
    assert len(corpus) >= 300
    premise_checks = 0
    for g in corpus:
        absent = {t: find_halfgraph(g, t, cap_nodes=2_000_000) is None for t in (1, 2, 3)}
        views = {k: neartwin_view(g, k) for k in (0, 1, 2)}
        for t in (1, 2, 3):
            if not absent[t]:
                continue
            for k in (0, 1, 2):
                bound = h_bound(k, t)
                for comp in views[k].components:
                    for i, u in enumerate(comp):
                        for v in comp[i + 1 :]:
                            assert symdiff(g, u, v) <= bound, (g.edges(), k, t, u, v)
                premise_checks += 1
    # Unconstrained gadgets: every closeness violation must convert into
    # a validated half-graph witness of the matching order.
    witnesses = 0
    for order, k, t in [(16, 1, 2), (17, 1, 2), (18, 2, 2), (20, 2, 2), (48, 1, 3), (49, 1, 3)]:
        g = gen_halfgraph(order)
        view = neartwin_view(g, k)
        bound = h_bound(k, t)
        for comp in view.components:
            for i, u in enumerate(comp):
                for v in comp[i + 1 :]:
                    if symdiff(g, u, v) > bound:
                        res = extract_halfgraph_for_pair(g, k, t, u, v)
                        assert isinstance(res, HalfgraphWitness), (order, k, t, u, v)
                        validate_halfgraph(g, res)
                        witnesses += 1
    elapsed = time.time() - t0
    assert premise_checks > 100 and witnesses > 4
    assert elapsed < 300
    _report(
        7,
        f"{premise_checks} premise-passing checks clean, {witnesses} violations "
        f"extracted to witnesses ({elapsed:.1f}s)",
    )


def _roundtrip_corpus():
    rng = random.Random(808)
    base: list = []
    base.extend(complete_graph(n) for n in list(range(3, 21)) + [25, 30, 40])
    base.extend(
        complete_bipartite(a, b)
        for a, b in [(7, 7), (10, 10), (12, 5), (15, 15), (20, 20), (3, 9), (40, 40)]
    )
    base.extend(cycle(n) for n in (3, 4, 5, 10, 50, 200))
    base.extend(gen_tree(d, m) for d, m in [(1, 2), (1, 5), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    base.append(subdivide(gen_tree(2, 3), 1))
    base.extend(gen_halfgraph(t) for t in range(1, 11))
    base.append(make_graph(12, [(i, j) for i in range(6) for j in range(6, 12)], {"Q": [0, 7]}))
    base.extend(gen_random(rng.randint(1, 24), rng.random(), 7000 + i) for i in range(30))
    base.extend(gen_random(rng.randint(25, 60), rng.uniform(0.05, 0.4), 7100 + i) for i in range(10))
    base.extend(gen_random(n, 3.0 / n, 7200 + n) for n in (100, 150, 200))
    return base


_SPARSIFIED_CACHE: list = []


def test_criterion_8_universal_roundtrip():
    t0 = time.time()
    runs = 0
    for g in _roundtrip_corpus():
        combos = (
            [(k, h) for k in range(4) for h in (1, 2, 5)]
            if g.n <= 60
            else [(0, 1), (1, 2), (3, 5)]
        )
        for k, h in combos:
            sg = build_sparsifier(g, k, h)
            assert recover(sg) == g, (g.n, k, h)
            runs += 1
            if sg.graph.n <= 60:
                _SPARSIFIED_CACHE.append(sg)
    elapsed = time.time() - t0
    assert runs >= 1000
    assert elapsed < 60
    _report(8, f"{runs} build/recover runs are exact ({elapsed:.1f}s)")


def _flipped_block_sparsifications():
    """Sparse random bases with one complemented block pair and one
    complemented block, so the outputs carry crossed and F marks, and
    flipped_blocks(n, 1) at n = 400 and 800 with criterion 12's k and h."""
    out = []
    for n in (120, 160, 200):
        g = gen_random(n, 2.0 / n, 9300 + n)
        g = flip(flip(g, range(40), range(40, 80)), range(n - 40, n), range(n - 40, n))
        out.extend(build_sparsifier(g, k, h) for k, h in [(4, 1), (6, 2)])
    out.extend(sparsified_flipped_blocks(n) for n in (400, 800))
    return out


def test_criterion_9_fo_oracle_equivalence():
    if not _SPARSIFIED_CACHE:
        test_criterion_8_universal_roundtrip()
    t0 = time.time()
    interp = fo.recovery_interpretation()
    checked = 0
    large = _flipped_block_sparsifications()
    assert all(sg.graph.predicates.get("F") for sg in large)
    for sg in _SPARSIFIED_CACHE + large:
        via_fo, remap = fo.apply_interpretation(sg.graph, interp)
        assert via_fo == recover(sg)
        assert sorted(remap) == list(range(sg.graph.n - len(sg.apex)))
        assert fo.check_range(sg.graph, interp.psi, 3)
        checked += 1
    elapsed = time.time() - t0
    largest = max(sg.graph.n for sg in large)
    _report(
        9,
        f"{checked} sparsified graphs (n <= {largest}): interpretation matches "
        f"recovery, range 3 ({elapsed:.1f}s)",
    )


def test_criterion_10_sparsifier_quality():
    t0 = time.time()

    def is_tree(g):
        if g.edge_count() != g.n - 1:
            return False
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == g.n

    for n in range(7, 41):
        sg = build_sparsifier(complete_bipartite(n, n), 0, 1)
        assert sg.graph.n == 2 * n + 2
        assert is_tree(sg.graph), n
    for n in range(11, 41):
        sg = build_sparsifier(complete_graph(n), 2, 2)
        out = sg.graph
        assert out.n == n + 1
        assert out.degree(n) == n and out.edge_count() == n
    # flipped counterpart degree bound whenever the dichotomy
    # preconditions verify
    bounded_pairs = 0
    for g, k, h in [
        (complete_bipartite(10, 10), 0, 1),
        (complete_graph(15), 2, 2),
        (complete_bipartite(40, 40), 0, 1),
    ]:
        sg = build_sparsifier(g, k, h)
        for i, j in sg.flipped_pairs:
            a, b = sg.partition.parts[i], sg.partition.parts[j]
            if not pair_density(g, a, b, h).preconditions_ok:
                continue
            for u in a:
                assert len(sg.graph.adj[u] & frozenset(b) - {u}) <= 2 * h
            for v in b:
                assert len(sg.graph.adj[v] & frozenset(a) - {v}) <= 2 * h
            bounded_pairs += 1
    elapsed = time.time() - t0
    assert bounded_pairs >= 3
    assert elapsed < 10
    _report(10, f"bipartite->tree, clique->star, flip degree bound ({elapsed:.1f}s)")


def test_criterion_11_performance_envelope():
    r, m = 2, 3
    g = gen_random(3000, 2.0 / 2999, 42)
    stats = SearchStats()
    t0 = time.time()
    compute_ranking(g, r, m, stats)
    rank_elapsed = time.time() - t0
    assert rank_elapsed < 60
    assert stats.max_nodes_per_search <= sum(r**i for i in range(m + 1))

    g2 = gen_random(5000, 2.0 / 4999, 43)
    t0 = time.time()
    sg = build_sparsifier(g2, 1, 2)
    sparsify_elapsed = time.time() - t0
    assert sparsify_elapsed < 60
    assert recover(sg) == g2
    _report(
        11,
        f"ranking n=3000 in {rank_elapsed:.1f}s (max {stats.max_nodes_per_search} "
        f"expansions/search), sparsifier n=5000 in {sparsify_elapsed:.1f}s",
    )


def test_criterion_12_sparsifier_output_has_tree_rank_two():
    """The sparsifier maps a flip of a bounded-degree graph to H with
    G = I(H) and max rank <= 2, for parameters fixed by the base degree D:
    the rank is checked at r = 1..3 with m = D+1 and with m = 2D+2.

    Inputs: the four-block flip pattern up to n = 1600 and complements
    of G(n, 3/n) up to n = 800, each of degree about n/2.  With k = 2D+2
    every flipped block is one near-twin component, and h = ceil(D/2)
    keeps the sparse background light, so H is the base plus one apex
    per flipped block.  The dense inputs themselves have max rank
    infinity at r = 1, m = D+1.

    The rank is checked directly, not by extracting a shallow tree:
    extraction needs the ranking at m_prime(2, 1, D+1), which is 188 at
    D = 8.  At that m every non-apex vertex of H has rank 1, so no
    vertex has the rank above 2 an extraction starts from.
    """
    t0 = time.time()
    cases = []
    for n, seeds in ((200, (1, 2, 3)), (400, (1, 2, 3)), (800, (1, 2)), (1600, (1,))):
        for seed in seeds:
            cases.append(("blocks", n, seed, *flipped_blocks(n, seed)))
    for n, seeds in ((200, (1, 2)), (400, (1, 2)), (800, (1,))):
        for seed in seeds:
            base = gen_random(n, 3 / n, seed)
            g = make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                               if v not in base.adj[u]])
            cases.append(("complement", n, seed, g, base))
    for kind, n, seed, g, base in cases:
        d = max(base.degree(v) for v in range(n))
        k, h = 2 * d + 2, max(1, math.ceil(d / 2))
        sg = build_sparsifier(g, k, h)
        assert recover(sg) == g, (kind, n, seed)
        assert all(sg.graph.degree(v) <= d + 1 for v in range(n)), (kind, n, seed)
        for r, m in product((1, 2, 3), (d + 1, 2 * d + 2)):
            ranks = compute_ranking(sg.graph, r, m).ranks
            v = next((v for v, x in enumerate(ranks) if x > 2), None)
            # On failure, also print the path from v to another vertex
            # of rank above 2 that the separator search could not cut.
            assert v is None, (
                f"{kind} n={n} seed={seed} r={r} m={m}: vertex {v} has rank {ranks[v]} "
                f"and degree {sg.graph.degree(v)}; path to another vertex of rank > 2: "
                f"{shortest_path(sg.graph, v, {u for u, x in enumerate(ranks) if x > 2} - {v}, r)}"
            )
        if n == 200:
            assert max(compute_ranking(g, 1, d + 1).ranks, default=0) == INF, (kind, n, seed)
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(
        12,
        f"{len(cases)} flipped inputs n<=1600: recovery exact, non-apex degree <= D+1, "
        f"rank <= 2 at r=1..3, m=D+1 and 2D+2 (dense inputs: inf) in {elapsed:.1f}s",
    )
