import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treerank.errors import ScaleExceeded
from treerank.graph import gen_halfgraph, gen_random, make_graph
from treerank.labd import (
    ClassSpec,
    ParamFunction,
    const_fn,
    labd_check,
    linear_fn,
    near_covered_check,
    no_ladder_bound,
    parse_param_function,
    table_fn,
)
from treerank.neartwin import find_halfgraph
from treerank.ranking import compute_ranking

from helpers import (
    complete_graph,
    cycle,
    labd_certificate_by_table,
    locally_near_covered_check,
    near_covered_bruteforce,
    seeded_random_graphs,
    star,
)


class TestParamFunction:
    def test_const_and_overflow(self):
        f = const_fn(5)
        assert f.eval(0, 10) == 5
        assert f.eval(3, 4) is None

    def test_linear(self):
        f = linear_fn(2, 1)
        assert f.eval(3, 100) == 7

    def test_exp2(self):
        f = parse_param_function("exp2")
        assert f.eval(4, 100) == 16
        assert f.eval(7, 100) is None
        assert f.eval(1000, 10**6) is None  # must not compute 2**1000

    def test_tower(self):
        f = parse_param_function("tower")
        assert [f.eval(r, 10**6) for r in range(5)] == [1, 2, 4, 16, 65536]
        assert f.eval(5, 10**6) is None

    def test_table_with_overflow_entries(self):
        f = table_fn({0: 3, 1: None})
        assert f.eval(0, 10) == 3
        assert f.eval(1, 10) is None
        assert f.eval(2, 10) is None  # missing radius counts as overflow

    def test_parse_roundtrip(self):
        for spec, f in [("const:5", const_fn(5)), ("linear:2,1", linear_fn(2, 1)),
                        ("exp2", ParamFunction("exp2")), ("tower", ParamFunction("tower"))]:
            assert parse_param_function(spec) == f
        with pytest.raises(ValueError):
            parse_param_function("cubic:3")

    def test_parse_table(self):
        f = parse_param_function('table:{"0": 3, "2": null}')
        assert f.table == {0: 3, 2: None}
        assert f == table_fn({0: 3, 2: None})

    @pytest.mark.parametrize("spec", [
        "const:", "const:x", "linear:1", "linear:1,2,3", "linear:a,b",
        "table:{", "table:[1]", 'table:{"a": 1}', 'table:{"0": "x"}',
        'table:{"0": true}', 'table:{"0": 1.5}', "exp2:", "",
        "const:-1", "linear:1,-2", 'table:{"0": -3}',
    ])
    def test_parse_rejects_malformed(self, spec):
        with pytest.raises(ValueError, match="expected const:N"):
            parse_param_function(spec)

    @settings(max_examples=40)
    @given(st.integers(0, 8), st.integers(0, 50), st.integers(0, 50))
    def test_monotone_consistency_across_budgets(self, r, n1, n2):
        lo, hi = min(n1, n2), max(n1, n2)
        for f in (const_fn(7), linear_fn(1, 2), parse_param_function("exp2")):
            v = f.eval(r, lo)
            if v is not None:
                assert f.eval(r, hi) == v


class TestLabdCheck:
    def test_regular_clique(self):
        res = labd_check(complete_graph(4), ClassSpec(const_fn(0), const_fn(3)))
        assert res.ok

    def test_star_one_exception(self):
        res = labd_check(star(6), ClassSpec(const_fn(1), const_fn(2)))
        assert res.ok

    def test_star_no_exceptions_fails_with_certificate(self):
        res = labd_check(star(6), ClassSpec(const_fn(0), const_fn(2)))
        assert not res.ok
        r, v, offenders = res.certificate
        assert r == 0 and v == 0 and offenders == (0,)

    def test_overflowing_bounds_pass_trivially(self):
        g = star(6)
        res = labd_check(g, ClassSpec(const_fn(10**9), const_fn(0)))
        assert res.ok  # f(r) > n at every radius, nothing checked

    def test_r_max_is_weaker(self):
        # degree bound violated only by counting at radius 2
        g = star(6)
        spec = ClassSpec(table_fn({2: 0}), table_fn({2: 2}))
        assert labd_check(g, spec, r_max=1).ok
        assert not labd_check(g, spec, r_max=2).ok

    def test_negative_r_max_is_rejected(self):
        with pytest.raises(ValueError, match="r_max must be nonnegative"):
            labd_check(star(6), ClassSpec(const_fn(0), const_fn(2)), r_max=-1)

    def test_certificates_match_the_distance_table(self):
        rng = random.Random(83)
        specs = ["const:0", "const:1", "const:3", "linear:1,1", "exp2", "tower",
                 'table:{"1": 2, "3": 0}']
        failures = 0
        graphs = seeded_random_graphs(40, 14, 84) + [
            gen_random(40, 0.1, 85), gen_random(60, 0.05, 86), gen_halfgraph(7)]
        for g in graphs:
            for _ in range(6):
                spec = ClassSpec(parse_param_function(rng.choice(specs)),
                                 parse_param_function(rng.choice(specs)))
                r_max = rng.choice([None, 0, 1, 2, 3])
                res = labd_check(g, spec, r_max=r_max)
                assert res.certificate == labd_certificate_by_table(g, spec, r_max)
                assert res.ok == (res.certificate is None)
                failures += not res.ok
        assert failures > 20

    def test_truncated_scan_keeps_memory_small(self):
        g = gen_random(800, 3 / 800, 87)
        spec = ClassSpec(const_fn(10), const_fn(4))
        tracemalloc.start()
        try:
            res = labd_check(g, spec, r_max=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.ok
        assert peak < 5_000_000


class TestNearCovered:
    def test_edgeless_all_near_twins(self):
        assert near_covered_check(make_graph(5), 0, 1).ok

    def test_clique_pairwise_two(self):
        assert near_covered_check(complete_graph(4), 2, 1).ok

    def test_clique_fails_at_one(self):
        res = near_covered_check(complete_graph(4), 1, 3)
        assert not res.ok and res.exact
        assert res.certificate == (0, 1, 2, 3)

    def test_greedy_false_is_sound(self):
        res = near_covered_check(complete_graph(4), 1, 3, exact=False)
        assert not res.ok and not res.exact
        assert len(res.certificate) == 4

    def test_greedy_true_is_flagged(self):
        res = near_covered_check(make_graph(5), 0, 1, exact=False)
        assert res.ok and not res.exact

    def test_exact_matches_bruteforce(self):
        rng = random.Random(6)
        for g in seeded_random_graphs(30, 12, 37):
            k = rng.randint(0, 3)
            m = rng.randint(0, 4)
            assert near_covered_check(g, k, m).ok == near_covered_bruteforce(g, k, m)

    def test_cap_aborts(self):
        g = gen_random(30, 0.5, 9)
        with pytest.raises(ScaleExceeded):
            near_covered_check(g, 0, 1, cap_nodes=2)


class TestLocallyNearCovered:
    def test_cycle_small_balls(self):
        res = locally_near_covered_check(cycle(10), const_fn(0), const_fn(10), 2)
        assert res.ok

    def test_halfgraph_fails_at_radius_two(self):
        g = gen_halfgraph(10)
        res = locally_near_covered_check(g, const_fn(2), const_fn(3), 2)
        assert not res.ok
        r, v, cert = res.certificate
        assert r == 2 and len(cert) == 4

    def test_huge_m_trivially_true(self):
        g = gen_halfgraph(6)
        res = locally_near_covered_check(g, const_fn(0), const_fn(10**9), 2)
        assert res.ok


class TestDerivedBounds:
    def test_no_ladder_values(self):
        assert no_ladder_bound(2, 3) == 10
        assert no_ladder_bound(0, 0) == 1
        assert no_ladder_bound(1, 1) == 3

    def test_local_coverage_excludes_half_graphs(self):
        # Any graph accepted at radius 2 with (k, m) has no semi-induced
        # half-graph of the derived order.
        k2, m2 = 1, 2
        t = no_ladder_bound(k2, m2)
        corpus = [cycle(8), complete_graph(5), star(5)] + seeded_random_graphs(15, 10, 43)
        checked = 0
        for g in corpus:
            res = locally_near_covered_check(g, const_fn(k2), const_fn(m2), 2)
            if res.ok:
                assert find_halfgraph(g, t) is None
                checked += 1
        assert checked > 0

    def test_membership_gives_rank_at_most_two(self):
        # Degree-bounded-with-exceptions graphs rank 1 or 2 at
        # m = max(f(r), d(r)).
        corpus = [star(6), complete_graph(4), cycle(9)] + seeded_random_graphs(10, 8, 47)
        checked = 0
        for g in corpus:
            for f_v, d_v in [(1, 2), (2, 3)]:
                spec = ClassSpec(const_fn(f_v), const_fn(d_v))
                if not labd_check(g, spec).ok:
                    continue
                for r in (1, 2):
                    ra = compute_ranking(g, r, max(f_v, d_v))
                    assert ra.max_rank() <= 2
                    checked += 1
        assert checked > 0
