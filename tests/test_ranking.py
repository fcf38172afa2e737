import math
import random
import time

import pytest

from treerank.errors import ScaleExceeded
from treerank.generators import gen_random, gen_tree
from treerank.graph import make_graph
from treerank.ranking import (
    INF,
    SearchStats,
    compute_ranking,
    rank_order,
    separator_search,
)

from helpers import (
    backconnectivity,
    closed_ball,
    complete_graph,
    noisy_clusters,
    path_graph,
    permute_graph,
    rank_oracle,
    ranking_full_rescan,
    scol_bruteforce,
    scol_by_permutations,
    seeded_random_graphs,
    separator_search_bruteforce,
    sparse_graph,
    star,
)


class TestComputeRanking:
    def test_path_all_rank_one(self):
        ra = compute_ranking(path_graph(5), 2, 2)
        assert ra.ranks == (1,) * 5

    def test_star_center_rank_two(self):
        ra = compute_ranking(star(5), 1, 2)
        assert ra.ranks[0] == 2
        assert all(ra.ranks[v] == 1 for v in range(1, 6))

    def test_tree_depth_two(self):
        ra = compute_ranking(gen_tree(2, 3), 1, 2)
        assert ra.ranks[0] == 3
        assert all(ra.ranks[v] == 2 for v in range(1, 4))
        assert all(ra.ranks[v] == 1 for v in range(4, 13))

    def test_clique_all_infinite(self):
        ra = compute_ranking(complete_graph(5), 1, 2)
        assert all(x == INF for x in ra.ranks)

    def test_rank_one_iff_low_degree(self):
        for g in seeded_random_graphs(15, 9, 31):
            for m in range(4):
                ra = compute_ranking(g, 1, m)
                for v in range(g.n):
                    assert (ra.ranks[v] == 1) == (g.degree(v) <= m)

    def test_witness_invariants(self):
        for g in seeded_random_graphs(12, 9, 17):
            r, m = 2, 2
            ra = compute_ranking(g, r, m)
            for v in range(g.n):
                i = ra.ranks[v]
                if i == INF:
                    continue
                s = ra.witnesses[v]
                assert len(s) <= m and v not in s
                for u in closed_ball(g, v, r, s) - {v}:
                    assert ra.ranks[u] < i

    def test_monotone_in_m(self):
        for g in seeded_random_graphs(12, 9, 53):
            prev = compute_ranking(g, 2, 0).ranks
            for m in range(1, 4):
                cur = compute_ranking(g, 2, m).ranks
                assert all(c <= p for c, p in zip(cur, prev))
                prev = cur

    def test_isomorphism_equivariance(self):
        rng = random.Random(9)
        for g in seeded_random_graphs(10, 8, 71):
            perm = list(range(g.n))
            rng.shuffle(perm)
            gp = permute_graph(g, perm)
            ra = compute_ranking(g, 2, 2).ranks
            rap = compute_ranking(gp, 2, 2).ranks
            for v in range(g.n):
                assert ra[v] == rap[perm[v]]

    def test_fixed_point_oracle(self):
        for g in seeded_random_graphs(25, 8, 41):
            for r, m in [(1, 1), (2, 2), (3, 1)]:
                assert compute_ranking(g, r, m).ranks == rank_oracle(g, r, m)

    def test_matches_full_rescan(self):
        corpus = seeded_random_graphs(200, 14, 83)
        corpus += [gen_random(16, p, seed) for seed, p in enumerate((0.1, 0.2, 0.5, 0.8))]
        corpus += [complete_graph(6), star(7), path_graph(9)]
        infinite = 0
        for g in corpus:
            for r in (1, 2, 3):
                for m in range(5):
                    ra = compute_ranking(g, r, m)
                    ref = ranking_full_rescan(g, r, m)
                    assert ra.ranks == ref.ranks
                    assert list(ra.witnesses.items()) == list(ref.witnesses.items())
                    infinite += INF in ra.ranks
        assert infinite > 0

    def test_path_rechecks_only_near_new_ranks(self):
        # P_n at r=1, m=1 ranks only the two ends each round, so n/2
        # rounds run; a full rescan makes about n^2/4 searches.
        n = 400
        stats = SearchStats()
        ra = compute_ranking(path_graph(n), 1, 1, stats)
        assert max(ra.ranks, default=0) == n // 2
        assert stats.searches <= 2 * n

    def test_round_one_runs_no_search(self):
        stats = SearchStats()
        ra = compute_ranking(star(5), 2, 5, stats)
        assert ra.ranks == (1,) * 6 and ra.witnesses[0] == frozenset(range(1, 6))
        assert stats == SearchStats()

    def test_rechecks_only_vertices_whose_reads_were_ranked(self):
        # The benchmark's rank-sparse shape, G(n, 2.75/n) at r=2, m=3.
        # Re-checking every unranked vertex within distance r of a new
        # rank, after searching every vertex in round 1, takes 6,907
        # searches and 8,345 nodes.
        stats = SearchStats()
        ra = compute_ranking(sparse_graph(4000, 5500, 1), 2, 3, stats)
        assert max(ra.ranks, default=0) == 9
        assert stats == SearchStats(searches=2484, nodes=3922, max_nodes_per_search=5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            compute_ranking(path_graph(3), 0, 1)
        with pytest.raises(ValueError):
            compute_ranking(path_graph(3), 1, -1)


class TestSeparatorSearch:
    def test_path_instance(self):
        g = path_graph(4)
        s = separator_search(g, 0, {3}, 3, 1)
        assert s is not None and len(s) == 1 and s <= {1, 2, 3}
        assert not closed_ball(g, 0, 3, s) & {3}

    def test_budget_zero(self):
        assert separator_search(path_graph(4), 0, {3}, 3, 0) is None

    def test_empty_target(self):
        assert separator_search(path_graph(4), 0, set(), 3, 0) == frozenset()

    def test_center_in_targets_rejected(self):
        with pytest.raises(ValueError):
            separator_search(path_graph(3), 0, {0, 2}, 1, 1)

    @pytest.mark.parametrize("v", [-1, 4])
    def test_center_out_of_range_rejected(self, v):
        with pytest.raises(ValueError, match="out of range"):
            separator_search(path_graph(4), v, [0], 2, 0)

    def test_bruteforce_path(self):
        assert separator_search_bruteforce(path_graph(4), 0, {3}, 3, 1) is not None

    def test_bruteforce_clique(self):
        assert separator_search_bruteforce(complete_graph(4), 0, {1, 2, 3}, 1, 2) is None

    def test_bruteforce_cap(self):
        with pytest.raises(ScaleExceeded):
            separator_search_bruteforce(gen_random(20, 0.2, 1), 0, {1}, 1, 1)

    def test_agreement_with_bruteforce(self):
        rng = random.Random(5)
        agreements = 0
        for g in seeded_random_graphs(60, 10, 13, min_n=2):
            v = rng.randrange(g.n)
            others = [u for u in range(g.n) if u != v]
            a = {u for u in others if rng.random() < 0.4}
            r = rng.randint(1, 3)
            m = rng.randint(0, 3)
            fast = separator_search(g, v, a, r, m)
            slow = separator_search_bruteforce(g, v, a, r, m)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert len(fast) <= m and v not in fast
                assert not closed_ball(g, v, r, fast) & (a - fast)
            agreements += 1
        assert agreements == 60

    def test_expansion_envelope(self):
        stats = SearchStats()
        g = gen_random(40, 0.15, 8)
        r, m = 2, 3
        compute_ranking(g, r, m, stats)
        bound = sum(r**i for i in range(m + 1))
        assert stats.max_nodes_per_search <= bound
        assert stats.max_nodes_per_search <= r**m * g.n**2


class TestSearchPruning:
    def test_forced_ring_over_budget_refused_at_root(self):
        stats = SearchStats()
        assert separator_search(star(5), 0, range(1, 6), 3, 4, stats) is None
        assert stats.nodes == 1

    def test_forced_ring_deleted_at_once(self):
        stats = SearchStats()
        assert separator_search(star(5), 0, range(1, 6), 3, 5, stats) == frozenset(range(1, 6))
        assert stats.nodes == 1

    def test_disjoint_paths_refused(self):
        # Four paths 0-i-(i+4) of length 2 that share only vertex 0: no
        # three deletions cut them all, and the root sees that at once.
        g = make_graph(9, [(0, i) for i in range(1, 5)] + [(i, i + 4) for i in range(1, 5)])
        stats = SearchStats()
        assert separator_search(g, 0, range(5, 9), 2, 3, stats) is None
        assert stats.nodes == 1
        assert separator_search(g, 0, range(5, 9), 2, 4) == frozenset(range(1, 5))

    def test_noisy_cluster_matches_unpruned_oracle(self):
        h = noisy_clusters(900, 30, 1)
        for m in range(7):
            ra = compute_ranking(h, 3, m)
            ref = ranking_full_rescan(h, 3, m)
            assert ra.ranks == ref.ranks
            assert list(ra.witnesses.items()) == list(ref.witnesses.items())

    def test_noisy_cluster_apexes_refused_fast(self):
        # Without pruning this ranking visits 2,661,120 search nodes
        # (82 s on a 2-vCPU VM); with it, one node per search.
        h = noisy_clusters(900, 30, 1)
        stats = SearchStats()
        t0 = time.time()
        ra = compute_ranking(h, 3, 10, stats)
        elapsed = time.time() - t0
        assert [v for v, x in enumerate(ra.ranks) if x == INF] == list(range(900, 930))
        assert stats.nodes <= 2000  # 30 measured
        assert elapsed < 60


class TestOrders:
    def test_rank_order_star(self):
        ra = compute_ranking(star(5), 1, 2)
        order = rank_order(ra)
        assert order[-1] == 0 and list(order[:-1]) == [1, 2, 3, 4, 5]

    def test_rank_order_ties_by_id(self):
        ra = compute_ranking(path_graph(4), 1, 2)
        assert rank_order(ra) == (0, 1, 2, 3)

    def test_rank_order_rejects_infinite(self):
        ra = compute_ranking(complete_graph(4), 1, 1)
        with pytest.raises(ValueError, match="infinite"):
            rank_order(ra)

    def test_backconnectivity_star_leaf(self):
        g = star(5)
        ra = compute_ranking(g, 1, 2)
        order = rank_order(ra)
        assert backconnectivity(g, order, 1, 1) == 1

    def test_backconnectivity_maximum_vertex(self):
        g = star(5)
        order = rank_order(compute_ranking(g, 1, 2))
        assert backconnectivity(g, order, order[-1], 2) == 0

    def test_backconnectivity_clique_minimum(self):
        g = complete_graph(4)
        assert backconnectivity(g, (0, 1, 2, 3), 0, 1) == 3

    def test_backconnectivity_cap(self):
        with pytest.raises(ScaleExceeded):
            backconnectivity(gen_random(20, 0.2, 2), tuple(range(20)), 0, 1)


class TestScol:
    def test_triangle(self):
        assert scol_bruteforce(complete_graph(3), 1) == 3

    def test_path(self):
        assert scol_bruteforce(path_graph(3), 1) == 2

    def test_single_vertex_counts_itself(self):
        assert scol_bruteforce(make_graph(1), 3) == 1

    def test_cap(self):
        with pytest.raises(ScaleExceeded):
            scol_bruteforce(gen_random(12, 0.3, 1), 1)

    def test_dp_matches_permutation_reference(self):
        for g in seeded_random_graphs(25, 6, 19):
            for r in (1, 2):
                assert scol_bruteforce(g, r) == scol_by_permutations(g, r)


class TestBridgeLemmas:
    def test_scol_bound_gives_finite_ranks_and_admissibility(self):
        # Finite (r, scol-1)-ranks, and the rank order then bounds the
        # exact backconnectivity by scol-1.
        for g in seeded_random_graphs(12, 7, 23):
            for r in (1, 2):
                m = scol_bruteforce(g, r) - 1
                ra = compute_ranking(g, r, m)
                assert ra.all_finite()
                order = rank_order(ra)
                for v in range(g.n):
                    assert backconnectivity(g, order, v, r) <= m
