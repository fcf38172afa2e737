import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treerank import fo
from treerank.graph import gen_halfgraph, gen_random, make_graph
from treerank.sparsify import build_sparsifier, recover

from helpers import (
    check_range_by_table,
    complete_bipartite,
    eval_reference,
    guarded_formula,
    path_graph,
    random_formula,
    satisfying_assignments,
    seeded_random_graphs,
)


def test_edge_atom():
    g = make_graph(2, [(0, 1)])
    assert fo.evaluate(g, fo.Edge("x", "y"), {"x": 0, "y": 1})
    assert not fo.evaluate(g, fo.Edge("x", "y"), {"x": 0, "y": 0})


def test_exists_at_isolated_vertex():
    g = make_graph(3, [(0, 1)])
    f = fo.Exists("y", fo.Edge("x", "y"))
    assert not fo.evaluate(g, f, {"x": 2})
    assert fo.evaluate(g, f, {"x": 0})


def test_two_distinct_neighbors():
    g = path_graph(3)
    f = fo.Exists(
        "y",
        fo.Exists(
            "z",
            fo.conj(fo.Not(fo.Eq("y", "z")), fo.Edge("x", "y"), fo.Edge("x", "z")),
        ),
    )
    assert fo.evaluate(g, f, {"x": 1})
    assert not fo.evaluate(g, f, {"x": 0})


def test_unbound_variable_rejected():
    g = make_graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="unbound"):
        fo.evaluate(g, fo.Edge("x", "y"), {"x": 0})


def test_parse_format_roundtrip():
    text = "(exists y (and (E x y) (P R y)))"
    f = fo.parse_formula(text)
    assert f == fo.Exists("y", fo.And((fo.Edge("x", "y"), fo.Pred("R", "y"))))
    assert fo.parse_formula(fo.format_formula(f)) == f


def test_parse_errors():
    for bad in ["", "(E x)", "(and)", "(bogus x y)", "(E x y", "(E x y) junk"]:
        with pytest.raises(ValueError):
            fo.parse_formula(bad)


def test_identity_interpretation():
    g = gen_random(7, 0.4, 11)
    out, remap = fo.apply_interpretation(g, fo.Interpretation(fo.Edge("x", "y"), fo.TRUE))
    assert out == g and remap == {v: v for v in range(7)}


def test_complement_interpretation():
    g = gen_random(6, 0.5, 4)
    psi = fo.conj(fo.Not(fo.Edge("x", "y")), fo.Not(fo.Eq("x", "y")))
    out, _ = fo.apply_interpretation(g, fo.Interpretation(psi, fo.TRUE))
    assert out.edge_count() == 6 * 5 // 2 - g.edge_count()


def test_delta_drops_marked():
    g = make_graph(16, [(i, i + 1) for i in range(15)], {"R": [3, 9]})
    out, _ = fo.apply_interpretation(
        g, fo.Interpretation(fo.Edge("x", "y"), fo.Not(fo.Pred("R", "x")))
    )
    assert out.n == 14


def test_interpretation_validates_free_vars():
    with pytest.raises(ValueError, match="free variable"):
        fo.Interpretation(fo.Edge("x", "z"), fo.TRUE)
    with pytest.raises(ValueError, match="free variable"):
        fo.Interpretation(fo.Edge("x", "y"), fo.Pred("R", "y"))


def test_asymmetric_psi_symmetrized():
    # u < v comparison cannot be expressed, but an asymmetric reachability
    # pattern can: psi holds only in one argument order, yet the output
    # graph is symmetric and simple.
    g = make_graph(3, [(0, 1), (1, 2)], {"R": [0]})
    psi = fo.conj(fo.Pred("R", "x"), fo.Edge("x", "y"))
    out, _ = fo.apply_interpretation(g, fo.Interpretation(psi, fo.TRUE))
    assert out.edges() == [(0, 1)]
    for v in range(out.n):
        assert v not in out.adj[v]


def test_reference_evaluator_agreement():
    rng = random.Random(2024)
    checked = 0
    for i in range(120):
        n = rng.randint(1, 6)
        g = gen_random(n, rng.random(), 500 + i)
        marked_r = frozenset(v for v in range(n) if rng.random() < 0.4)
        marked_b = frozenset(v for v in range(n) if rng.random() < 0.4)
        g = make_graph(n, g.edges(), {"R": marked_r, "B": marked_b})
        f = random_formula(rng, rng.randint(1, 3))
        fv = sorted(fo.free_vars(f))
        assignment = {v: rng.randrange(n) for v in fv}
        got = fo.evaluate(g, f, assignment)
        want = eval_reference(g, f, assignment)
        assert got == want, (fo.format_formula(f), assignment, g.edges())
        checked += 1
    assert checked == 120


def test_guarded_evaluator_agreement():
    # Every assignment of the free variables, so a guard that ranges
    # over the wrong vertices shows as a differing truth value.
    rng = random.Random(909)
    checked = 0
    for i in range(300):
        n = rng.randint(1, 6)
        g = gen_random(n, rng.random(), 900 + i)
        preds = {
            "R": [v for v in range(n) if rng.random() < 0.4],
            "B": [v for v in range(n) if rng.random() < 0.4],
        }
        g = make_graph(n, g.edges(), preds)
        f = guarded_formula(rng, rng.randint(0, 3))
        sat, order = satisfying_assignments(g, f)
        for values in product(range(n), repeat=len(order)):
            got = fo.evaluate(g, f, dict(zip(order, values)))
            assert got == (values in sat), (fo.format_formula(f), values, g.edges())
            checked += 1
    assert checked > 2000


def test_guard_cases():
    g = make_graph(4, [(0, 1), (1, 2)], {"R": [2]})
    some_r = fo.Exists("w", fo.conj(fo.Pred("R", "w"), fo.Edge("x", "w")))
    assert fo.evaluate(g, some_r, {"x": 1})
    assert not fo.evaluate(g, some_r, {"x": 0})
    # a predicate the graph lacks is an empty guard
    missing = fo.Exists("w", fo.conj(fo.Pred("M", "w"), fo.TRUE))
    assert not fo.evaluate(g, missing, {})
    # (E w w) is no guard: the next conjunct, or all vertices, is used
    loop = fo.Exists("w", fo.conj(fo.Edge("w", "w"), fo.Edge("w", "x")))
    assert not fo.evaluate(g, loop, {"x": 1})
    no_loop = fo.Exists("w", fo.conj(fo.Not(fo.Edge("w", "w")), fo.Eq("w", "x")))
    assert fo.evaluate(g, no_loop, {"x": 3})
    # the inner x ranges over the neighbors of the y bound by the outer
    # quantifier, and the outer x is restored afterwards
    rebind = fo.Exists(
        "y",
        fo.conj(
            fo.Edge("x", "y"),
            fo.Exists("x", fo.conj(fo.Edge("x", "y"), fo.Pred("R", "x"))),
            fo.Not(fo.Pred("R", "x")),
        ),
    )
    assert fo.evaluate(g, rebind, {"x": 0})
    assert not fo.evaluate(g, rebind, {"x": 3})


def test_check_range_edge_formula():
    g = gen_random(8, 0.3, 6)
    assert fo.check_range(g, fo.Edge("x", "y"), 1)


def test_check_range_non_edge_fails_on_path():
    g = path_graph(4)
    psi = fo.conj(fo.Not(fo.Edge("x", "y")), fo.Not(fo.Eq("x", "y")))
    assert not fo.check_range(g, psi, 1)


def test_check_range_rejects_free_variables_beyond_x_y():
    # Raised before any pair is tested, so graphs without pairs too.
    for g in (gen_random(6, 0.3, 1), make_graph(1)):
        with pytest.raises(ValueError, match=r"unbound: \['z'\]"):
            fo.check_range(g, fo.Pred("R", "z"), 0)
        with pytest.raises(ValueError, match=r"unbound: \['u', 'w'\]"):
            fo.check_range(g, fo.conj(fo.Edge("x", "w"), fo.Eq("u", "y")), 2)
    assert fo.check_range(gen_random(6, 0.3, 1), fo.Exists("z", fo.Pred("R", "z")), 0)


def test_check_range_matches_the_distance_table():
    # The recovery psi on marked graphs (sparsifier outputs and random
    # marks) and random formulas in x and y, at every b in 0..3.
    rng = random.Random(4242)
    recovery = fo.recovery_interpretation().psi
    verdicts = {True: 0, False: 0}
    for i, g in enumerate(seeded_random_graphs(320, 16, 4243)):
        if i % 4 == 0:
            g = build_sparsifier(g, i % 3, 1 + i % 2).graph
        else:
            r = [v for v in range(g.n) if rng.random() < 0.3]
            g = make_graph(g.n, g.edges(), {"R": r, "F": [v for v in r if rng.random() < 0.5],
                                            "B": [v for v in range(g.n) if rng.random() < 0.4]})
        psi = recovery if i % 2 else random_formula(rng, rng.randint(1, 3), ("x", "y"))
        for b in range(4):
            got = fo.check_range(g, psi, b)
            assert got == check_range_by_table(g, psi, b), (i, b, fo.format_formula(psi))
            verdicts[got] += 1
    assert min(verdicts.values()) > 100


def test_check_range_memory_is_linear():
    g = gen_random(800, 3 / 800, 88)
    tracemalloc.start()
    try:
        ok = fo.check_range(g, fo.Edge("x", "y"), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 5_000_000


def test_recovery_on_unmarked_graph():
    g = gen_random(9, 0.4, 12)
    interp = fo.recovery_interpretation()
    out, remap = fo.apply_interpretation(g, interp)
    assert out == g and len(remap) == g.n


def test_recovery_equals_direct_recover():
    interp = fo.recovery_interpretation()
    cases = [
        complete_bipartite(7, 7),
        make_graph(11, [(i, j) for i in range(11) for j in range(i + 1, 11)]),
        gen_halfgraph(5),
    ] + seeded_random_graphs(10, 20, 77)
    for g in cases:
        for k, h in [(0, 1), (1, 1), (2, 2)]:
            sg = build_sparsifier(g, k, h)
            via_fo, _ = fo.apply_interpretation(sg.graph, interp)
            assert via_fo == recover(sg)
            assert fo.check_range(sg.graph, interp.psi, 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**21 - 1), st.integers(0, 127))
def test_apply_always_simple(self_mask, r_mask):
    n = 7
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for i, p in enumerate(pairs) if self_mask >> i & 1]
    g = make_graph(n, edges, {"R": [v for v in range(n) if r_mask >> v & 1]})
    psi = fo.disj(fo.Edge("x", "y"), fo.Pred("R", "x"))
    out, _ = fo.apply_interpretation(g, fo.Interpretation(psi, fo.TRUE))
    for v in range(out.n):
        assert v not in out.adj[v]
        for u in out.adj[v]:
            assert v in out.adj[u]
