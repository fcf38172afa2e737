import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treerank import fo
from treerank.generators import gen_halfgraph, gen_random
from treerank.graph import make_graph
from treerank.sparsify import build_sparsifier, recover_graph

from helpers import (
    apply_interpretation_pairwise,
    check_range_by_table,
    check_range_pairwise,
    complete_bipartite,
    eval_reference,
    guarded_formula,
    path_graph,
    random_formula,
    reference_truth,
    satisfying_assignments,
    seeded_random_graphs,
    sparsified_flipped_blocks,
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


def test_identity_interpretation():
    g = gen_random(7, 0.4, 11)
    out, remap = fo.apply_interpretation(g, fo.Interpretation(fo.Edge("x", "y"), fo.Const(True)))
    assert out == g and remap == {v: v for v in range(7)}


def test_complement_interpretation():
    g = gen_random(6, 0.5, 4)
    psi = fo.conj(fo.Not(fo.Edge("x", "y")), fo.Not(fo.Eq("x", "y")))
    out, _ = fo.apply_interpretation(g, fo.Interpretation(psi, fo.Const(True)))
    assert out.edge_count() == 6 * 5 // 2 - g.edge_count()


def test_delta_drops_marked():
    g = make_graph(16, [(i, i + 1) for i in range(15)], {"R": [3, 9]})
    out, _ = fo.apply_interpretation(
        g, fo.Interpretation(fo.Edge("x", "y"), fo.Not(fo.Pred("R", "x")))
    )
    assert out.n == 14


def test_interpretation_validates_free_vars():
    with pytest.raises(ValueError, match="free variable"):
        fo.Interpretation(fo.Edge("x", "z"), fo.Const(True))
    with pytest.raises(ValueError, match="free variable"):
        fo.Interpretation(fo.Edge("x", "y"), fo.Pred("R", "y"))
    with pytest.raises(ValueError, match="free variable"):
        fo.Interpretation(delta=fo.Const(True), psi=fo.Edge("y", "z"))


def test_formula_nodes_are_frozen_values_of_their_class():
    p = fo.Edge("x", "y")
    assert fo.And((p,)) != fo.Or((p,)) and fo.Or((p,)) != fo.And((p,))
    assert fo.Exists("y", p) != fo.Forall("y", p)
    assert fo.Exists("y", p) == fo.Exists(var="y", f=fo.Edge("x", "y"))
    assert hash(fo.conj(p, fo.Const(True))) == hash(fo.And((fo.Edge("x", "y"), fo.Const(True))))
    assert len({fo.And((p,)), fo.Or((p,)), fo.And((p,))}) == 2
    with pytest.raises(AttributeError):
        p.x = "z"
    with pytest.raises(AttributeError):
        del p.x
    assert p == fo.Edge("x", "y")
    assert repr(fo.Not(p)) == "Not(f=Edge(x='x', y='y'))"


def test_asymmetric_psi_symmetrized():
    # u < v comparison cannot be expressed, but an asymmetric reachability
    # pattern can: psi holds only in one argument order, yet the output
    # graph is symmetric and simple.
    g = make_graph(3, [(0, 1), (1, 2)], {"R": [0]})
    psi = fo.conj(fo.Pred("R", "x"), fo.Edge("x", "y"))
    out, _ = fo.apply_interpretation(g, fo.Interpretation(psi, fo.Const(True)))
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
        assert got == want, (repr(f), assignment, g.edges())
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
            assert got == (values in sat), (repr(f), values, g.edges())
            checked += 1
    assert checked > 2000


def test_guard_cases():
    g = make_graph(4, [(0, 1), (1, 2)], {"R": [2]})
    some_r = fo.Exists("w", fo.conj(fo.Pred("R", "w"), fo.Edge("x", "w")))
    assert fo.evaluate(g, some_r, {"x": 1})
    assert not fo.evaluate(g, some_r, {"x": 0})
    # a predicate the graph lacks is an empty guard
    missing = fo.Exists("w", fo.conj(fo.Pred("M", "w"), fo.Const(True)))
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


def test_an_edge_to_the_solved_variable_is_no_guard():
    # The compiled environment binds every free variable but the solved
    # one, so z ranges over the row of the first Edge partner that is
    # not the solved variable, or over every vertex when there is none.
    g = gen_random(8, 0.4, 77)
    two_step = fo.Exists("z", fo.conj(fo.Edge("x", "z"), fo.Edge("z", "y")))
    domain, rest = fo._guard(two_step, "y")
    assert domain(g, {"x": 3}) is g.adj[3] and rest == fo.conj(fo.Edge("z", "y"))
    domain, rest = fo._guard(two_step, "x")
    assert domain(g, {"y": 5}) is g.adj[5] and rest == fo.conj(fo.Edge("x", "z"))
    both_solved = fo.Exists("z", fo.conj(fo.Edge("x", "z"), fo.Edge("z", "x")))
    domain, rest = fo._guard(both_solved, "x")
    assert list(domain(g, {})) == list(range(g.n)) and rest == both_solved.f


def test_set_at_a_time_matches_the_pair_scan():
    # Random psi(x, y) and delta(x) with guarded and unguarded
    # quantifiers over x, y and fresh variables, against the pair scan
    # on the reference evaluator: the interpretation, the range check at
    # b = 0..3, psi's truth at sampled pairs, and a closed formula.
    rng = random.Random(2468)
    seen = {"rebinds y": 0, "closed true": 0, "closed false": 0, "empty graph": 0}
    for i in range(2000):
        n = rng.randint(0, 7)
        marks = {name: [v for v in range(n) if rng.random() < 0.4] for name in ("R", "B")}
        g = make_graph(n, gen_random(n, rng.random(), 3000 + i).edges(), marks)
        psi = random_formula(rng, rng.randint(0, 3), ("x", "y"), ("z", "w"))
        delta = random_formula(rng, rng.randint(0, 2), ("x",), ("y", "z"))
        interp = fo.Interpretation(psi, delta)
        assert fo.apply_interpretation(g, interp) == apply_interpretation_pairwise(g, interp), (
            i, repr(interp))
        for b in range(4):
            assert fo.check_range(g, psi, b) == check_range_pairwise(g, psi, b), (i, b, repr(psi))
        holds = reference_truth(g, psi)
        for _ in range(3 if n else 0):
            assignment = {"x": rng.randrange(n), "y": rng.randrange(n)}
            assert fo.evaluate(g, psi, assignment) == holds(assignment), (i, assignment, repr(psi))
        closed = rng.choice((fo.Exists, fo.Forall))("y", psi)
        closed = rng.choice((fo.Exists, fo.Forall))("x", closed)
        verdict = fo.evaluate(g, closed, {})
        assert verdict == eval_reference(g, closed, {}), (i, repr(closed))
        seen["closed true" if verdict else "closed false"] += 1
        seen["rebinds y"] += "var='y'" in repr(psi)
        seen["empty graph"] += n == 0
    assert min(seen.values()) > 100, seen


def test_all_is_not_empty():
    # None stands for every vertex; a conjunction or a quantifier that
    # took it for the empty set would drop these edges.
    g = path_graph(4)
    for psi in (fo.conj(fo.Eq("y", "y"), fo.Edge("x", "y")),
                fo.conj(fo.Const(True), fo.Not(fo.Pred("M", "y")), fo.Edge("x", "y")),
                fo.conj(fo.Forall("z", fo.Eq("z", "z")), fo.Edge("x", "y")),
                fo.disj(fo.Const(False), fo.conj(fo.Edge("x", "y"), fo.Not(fo.Const(False)))),
                fo.conj(fo.disj(fo.Const(True), fo.Pred("M", "y")), fo.Edge("x", "y")),
                fo.Forall("z", fo.disj(fo.Eq("z", "x"), fo.Edge("x", "y")))):
        assert fo.apply_interpretation(g, fo.Interpretation(psi, fo.Const(True)))[0] == g, repr(psi)
        assert fo.evaluate(g, psi, {"x": 1, "y": 2}) and not fo.evaluate(g, psi, {"x": 0, "y": 2})
    everything = fo.disj(fo.Edge("x", "y"), fo.Not(fo.Edge("x", "y")))
    out, _ = fo.apply_interpretation(g, fo.Interpretation(everything, fo.Const(True)))
    assert out.edge_count() == 6
    nothing = fo.conj(fo.Edge("x", "y"), fo.Not(fo.Eq("y", "y")))
    out, _ = fo.apply_interpretation(g, fo.Interpretation(nothing, fo.Const(True)))
    assert out.edge_count() == 0


def test_closed_subformulas_stay_true_or_false():
    # A formula without the solved-for variable gives "every vertex" or
    # nothing: the complement of nothing must read as true, also on the
    # graph without vertices.
    for g in (make_graph(0), path_graph(3)):
        assert fo.evaluate(g, fo.Not(fo.Exists("z", fo.Pred("M", "z"))), {})
        assert fo.evaluate(g, fo.Not(fo.Const(False)), {})
        assert fo.evaluate(g, fo.Forall("z", fo.Exists("w", fo.Eq("z", "w"))), {})
        assert fo.evaluate(g, fo.Exists("z", fo.Const(True)), {}) == (g.n > 0)
        assert fo.evaluate(g, fo.Forall("z", fo.Const(False)), {}) == (g.n == 0)
    g = path_graph(3)
    psi = fo.conj(fo.Edge("x", "y"), fo.Not(fo.Exists("z", fo.Pred("M", "z"))))
    assert fo.apply_interpretation(g, fo.Interpretation(psi, fo.Const(True)))[0] == g
    assert fo.evaluate(g, fo.Exists("x", fo.Not(fo.Pred("M", "x"))), {"x": 0})


def test_quantifier_rebinding_y():
    # The inner y is a new variable: x is joined to each neighbor y if x
    # has some R-marked neighbor, which on the path 0-1-2-3 with R = {0}
    # only 1 has.
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)], {"R": [0]})
    has_r = fo.Exists("y", fo.conj(fo.Pred("R", "y"), fo.Edge("x", "y")))
    psi = fo.conj(fo.Edge("x", "y"), has_r)
    out, _ = fo.apply_interpretation(g, fo.Interpretation(psi, fo.Const(True)))
    assert out.edges() == [(0, 1), (1, 2)]
    assert fo.evaluate(g, psi, {"x": 1, "y": 2}) and not fo.evaluate(g, psi, {"x": 2, "y": 1})
    assert not fo.check_range(g, fo.conj(fo.Not(fo.Eq("x", "y")), has_r), 1)
    assert fo.check_range(g, fo.conj(fo.Not(fo.Eq("x", "y")), has_r), 2)
    every = fo.Forall("y", fo.disj(fo.Eq("x", "y"), fo.Not(fo.Edge("x", "y"))))
    assert fo.evaluate(g, fo.conj(fo.Edge("x", "y"), fo.Not(every)), {"x": 0, "y": 1})


def test_check_range_edge_formula():
    g = gen_random(8, 0.3, 6)
    assert fo.check_range(g, fo.Edge("x", "y"), 1)


def test_check_range_non_edge_fails_on_path():
    g = path_graph(4)
    psi = fo.conj(fo.Not(fo.Edge("x", "y")), fo.Not(fo.Eq("x", "y")))
    assert not fo.check_range(g, psi, 1)


def test_check_range_returns_the_bools_true_and_false():
    # perfbench/child.py prints check_range's result and perfbench/checks.py
    # accepts only the text "True", so the verdict stays a bool: not a
    # certificate, and not None for a pass.
    h = build_sparsifier(complete_bipartite(7, 7), 1, 1).graph
    assert fo.check_range(h, fo.recovery_interpretation().psi, 3) is True
    psi = fo.conj(fo.Not(fo.Edge("x", "y")), fo.Not(fo.Eq("x", "y")))
    assert fo.check_range(path_graph(4), psi, 1) is False


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
            assert got == check_range_by_table(g, psi, b), (i, b, repr(psi))
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


def test_apply_interpretation_memory_is_near_recover_graph():
    # apply_interpretation writes the output's rows and hands them to
    # relabel, as recover_graph does, with no list of vertex pairs in
    # between, so its peak stays within 2.5x of recover_graph's.
    h = sparsified_flipped_blocks(800).graph
    interp = fo.recovery_interpretation()
    peaks = []
    for build in (lambda: fo.apply_interpretation(h, interp), lambda: recover_graph(h)):
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 2.5 * peaks[1], peaks


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
    marked = [build_sparsifier(g, k, h).graph for g in cases for k, h in [(0, 1), (1, 1), (2, 2)]]
    # Hand-marked, with the R vertices 2 and 5 among the kept ids and an
    # extra predicate Q: apex 2 is F-marked over {0, 1, 3}, apex 5 marks
    # {4, 6}, and the two are adjacent, so both callers of relabel move ids.
    edges = [(2, 0), (2, 1), (2, 3), (2, 5), (5, 4), (5, 6), (0, 1), (3, 4)]
    moved = make_graph(7, edges, {"R": [2, 5], "F": [2], "Q": [1, 2, 4]})
    flipped = [(0, 2), (1, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)]  # in the new ids
    assert recover_graph(moved) == (make_graph(5, flipped, {"Q": [1, 3]}),
                                    {0: 0, 1: 1, 3: 2, 4: 3, 6: 4})
    for h in marked + [moved]:
        assert fo.apply_interpretation(h, interp) == recover_graph(h)
        assert fo.check_range(h, interp.psi, 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**21 - 1), st.integers(0, 127))
def test_apply_always_simple(self_mask, r_mask):
    n = 7
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for i, p in enumerate(pairs) if self_mask >> i & 1]
    g = make_graph(n, edges, {"R": [v for v in range(n) if r_mask >> v & 1]})
    psi = fo.disj(fo.Edge("x", "y"), fo.Pred("R", "x"))
    out, _ = fo.apply_interpretation(g, fo.Interpretation(psi, fo.Const(True)))
    for v in range(out.n):
        assert v not in out.adj[v]
        for u in out.adj[v]:
            assert v in out.adj[u]
