"""Shared corpus builders and independent oracles for the test suite.

The oracles here deliberately use different algorithms than the library
(subset enumeration, relational-algebra formula evaluation) so agreement
is meaningful.  The full-rescan ranking is the plain form of the rounds
that compute_ranking evaluates semi-naively, over the separator search
without its pruning, and the pairwise recovery is the plain form of the
per-row toggles recover_graph applies.  The near-twin oracles test every
vertex pair where the library tests only candidates that share one of
k+1 neighbors.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Iterable, Optional, Sequence

from treerank.errors import ScaleExceeded
from treerank.generators import gen_halfgraph, gen_random
from treerank.graph import Graph, make_graph, relabel, shortest_path, within_distance
from treerank.labd import ParamFunction, near_covered_check
from treerank.neartwin import PartPartition, symdiff
from treerank.ranking import RankAssignment
from treerank.sparsify import RecoverError, SparsifiedGraph, build_sparsifier

INF = math.inf


# ---------------------------------------------------------------------------
# Structured families.


def complete_graph(n: int) -> Graph:
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return make_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cycle(n: int) -> Graph:
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def star(leaves: int) -> Graph:
    return make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def padded_halfgraph(t: int) -> Graph:
    """gen_halfgraph(t) plus filler vertices 2t.. that make degrees fall
    strictly along u_1, w_1, u_2, w_2, ... and leave every filler below
    every half-graph vertex, so find_halfgraph's degree order places each
    u_i and w_i at its first try and its search runs 2t+1 nodes deep.

    The vertex at position p of that sequence gets degree 4t - p: it is
    joined to fillers 2t, 2t+1, ... until it has it.  A filler has at
    most 2t neighbours, fewer than the 2t+1 of the last position.
    """
    hg = gen_halfgraph(t)
    seq = [v for i in range(t) for v in (i, t + i)]
    extra = [4 * t - p - hg.degree(v) for p, v in enumerate(seq)]
    edges = list(hg.edges()) + [(v, 2 * t + j) for v, e in zip(seq, extra) for j in range(e)]
    return make_graph(2 * t + max(extra), edges)


def disjoint_union(*graphs: Graph) -> Graph:
    total = sum(g.n for g in graphs)
    edges = []
    preds: dict[str, set[int]] = {}
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        for name, vs in g.predicates.items():
            preds.setdefault(name, set()).update(v + offset for v in vs)
        offset += g.n
    return make_graph(total, edges, preds)


def permute_graph(g: Graph, perm: list[int]) -> Graph:
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    preds = {name: [perm[v] for v in vs] for name, vs in g.predicates.items()}
    return make_graph(g.n, edges, preds)


def seeded_random_graphs(count: int, max_n: int, seed: int, min_n: int = 1) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(min_n, max_n)
        p = rng.random()
        out.append(gen_random(n, p, seed * 1000 + i))
    return out


def seeded_dense_graphs(count: int, max_n: int, seed: int) -> list[Graph]:
    """Graphs with edge probability at least 0.6 and n >= 8, so most
    degrees pass k+1 for small k; every third is a complement of a
    sparse graph, with near-twin blocks of high degree."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(8, max_n)
        if i % 3 == 2:
            sparse = gen_random(n, 2.0 / n, seed * 1000 + i)
            edges = [(u, v) for u, v in combinations(range(n), 2) if v not in sparse.adj[u]]
            out.append(make_graph(n, edges))
        else:
            out.append(gen_random(n, rng.uniform(0.6, 1.0), seed * 1000 + i))
    return out


# Block flip pattern over four blocks: a symmetric 0/1 matrix with
# pairwise distinct rows, so each block is its own near-twin component.
# (i, i) complements inside block i, (i, j) between blocks i and j.
FLIP_PATTERN = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 3), (2, 3), (3, 3))


def sparse_graph(n: int, m: int, seed: int) -> Graph:
    """m distinct random edges on n vertices: G(n, m), drawn in O(m)
    steps where gen_random's pair scan takes O(n^2)."""
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return make_graph(n, edges)


def flipped_blocks(n: int, seed: int) -> tuple[Graph, Graph]:
    """A G(n, 3/n) base under FLIP_PATTERN over four random blocks of
    n // 4 vertices, which complements most vertex pairs.

    Returns (flipped graph, base).  The pairs are toggled here directly,
    not through the library's flip.
    """
    base = gen_random(n, 3 / n, seed)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    size = n // 4
    blocks = [sorted(perm[i * size : (i + 1) * size]) for i in range(4)]
    edges = set(base.edges())
    for i, j in FLIP_PATTERN:
        if i == j:
            pairs = combinations(blocks[i], 2)
        else:
            pairs = product(blocks[i], blocks[j])
        edges.symmetric_difference_update((min(x, y), max(x, y)) for x, y in pairs)
    return make_graph(n, edges), base


@lru_cache(maxsize=None)
def sparsified_flipped_blocks(n: int) -> SparsifiedGraph:
    """build_sparsifier on flipped_blocks(n, 1) with criterion 12's
    k = 2D + 2 and h = ceil(D / 2), D the base's max degree.  Cached,
    as criterion 9 and the FO memory test read the same graphs."""
    g, base = flipped_blocks(n, 1)
    d = max(base.degree(v) for v in range(n))
    return build_sparsifier(g, 2 * d + 2, max(1, math.ceil(d / 2)))


def noisy_clusters(n: int, s: int, seed: int) -> Graph:
    """The sparsified H of a noisy cluster graph.

    G is the cluster graph on cliques of s consecutive ids with the
    pairs of sparse_graph(n, n, seed) toggled: cluster graph xor G(n,
    M = n).  With D the noise's max degree, H is
    build_sparsifier(G, 2D + 2, ceil(D / 2)).graph: the noise plus one
    apex per clique.  At r = 3 the apexes join through leaf-noise-leaf
    paths, so their separator searches fail at every small m.
    """
    noise = sparse_graph(n, n, seed)
    d = max(noise.degree(v) for v in range(n))
    edges = {(u, v) for u in range(n) for v in range(u + 1, min(n, (u // s + 1) * s))}
    edges.symmetric_difference_update(noise.edges())
    return build_sparsifier(make_graph(n, edges), 2 * d + 2, math.ceil(d / 2)).graph


def flip_pairwise(g: Graph, parts, pairs: Iterable[tuple[int, int]]) -> Graph:
    """g with the listed part pairs complemented one vertex pair at a time.

    Each (i, j) toggles every edge {x, y} with x in parts[i], y in
    parts[j] and x != y, each unordered pair once; (i, i) toggles the
    pairs inside parts[i].
    """
    edges = set(g.edges())
    for i, j in pairs:
        todo = combinations(sorted(parts[i]), 2) if i == j else product(parts[i], parts[j])
        for x, y in todo:
            edges.symmetric_difference_update({(min(x, y), max(x, y))})
    return make_graph(g.n, edges, g.predicates)


def random_flip_spec(rng: random.Random, n: int) -> tuple[list[tuple[int, ...]], list[tuple[int, int]]]:
    """Disjoint parts of range(n), some empty, and a pair list over them
    with repeats, both orders of a pair and self pairs (possibly empty)."""
    owner = [rng.randrange(-1, 4) for _ in range(n)]
    parts = [tuple(v for v in range(n) if owner[v] == i) for i in range(4)]
    pairs = [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(7))]
    pairs += [(j, i) for i, j in pairs if rng.random() < 0.3] + pairs[: rng.randrange(3)]
    rng.shuffle(pairs)
    return parts, pairs


def bfs_distances(g: Graph, source: int) -> dict[int, int]:
    """Distance from source to every vertex reachable from it."""
    dist = {source: 0}
    order = [source]
    for u in order:  # order grows while it is read: a FIFO queue
        for w in g.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                order.append(w)
    return dist


# ---------------------------------------------------------------------------
# Checked ball and induced subgraph: the range-checked single-center
# BFS and the subgraph on a vertex set, over the library's
# within_distance and relabel.


def closed_ball(g: Graph, v: int, r: int, forbidden: frozenset[int] = frozenset()) -> frozenset[int]:
    """Vertices reachable from v by a path of at most r edges, including v.

    Vertices in `forbidden` are treated as deleted (and v must not be one).
    """
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if v in forbidden:
        raise ValueError("ball center is deleted")
    return frozenset(within_distance(g, v, r, forbidden))


def induced(g: Graph, x: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on X with ids remapped densely (sorted order).

    Returns (subgraph, mapping) where mapping sends old ids to new ids.
    """
    keep = frozenset(x)
    for v in sorted(keep):
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    return relabel(g, keep, [row & keep for row in g.adj])


# ---------------------------------------------------------------------------
# Near-twin oracles: every vertex pair is tested.


def nt_edges_allpairs(g: Graph, k: int) -> list[frozenset[int]]:
    """NT_k adjacency rows by a symdiff test of every pair."""
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in combinations(range(g.n), 2):
        if symdiff(g, u, v) <= k:
            adj[u].add(v)
            adj[v].add(u)
    return [frozenset(s) for s in adj]


def nt_components_allpairs(g: Graph, k: int) -> tuple[tuple[int, ...], ...]:
    """Components of the all-pairs NT_k graph by depth-first search,
    each sorted, in order of their smallest member."""
    adj = nt_edges_allpairs(g, k)
    seen: set[int] = set()
    comps = []
    for v in range(g.n):
        if v in seen:
            continue
        comp = [v]
        seen.add(v)
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def nt_path_scan(g: Graph, k: int, u: int, v: int):
    """Shortest NT_k path by BFS that scans all n vertices with a symdiff
    test at every visited vertex; parents are the first discoverers."""
    if u == v:
        return [u]
    parent = {u: -1}
    frontier = [u]
    while frontier:
        nxt = []
        for a in frontier:
            for b in range(g.n):
                if b in parent or b == a:
                    continue
                if symdiff(g, a, b) <= k:
                    parent[b] = a
                    if b == v:
                        path = [v]
                        while path[-1] != u:
                            path.append(parent[path[-1]])
                        path.reverse()
                        return path
                    nxt.append(b)
        frontier = nxt
    return None


def near_covered_bruteforce(g: Graph, k: int, m: int, cap_n: int = 12) -> bool:
    """Near-coverage by full subset enumeration; desk scale only."""
    if g.n > cap_n:
        raise ScaleExceeded("near_covered_bruteforce", f"n={g.n}")
    nt_adj = nt_edges_allpairs(g, k)
    for size in range(m + 1, g.n + 1):
        for combo in combinations(range(g.n), size):
            if all(v not in nt_adj[u] for u, v in combinations(combo, 2)):
                return False
    return True


def labd_certificate_by_table(g: Graph, spec, r_max=None):
    """labd_check's certificate (None when it passes) read off a table
    of all-pairs BFS distances, scanning radii then centers."""
    limit = g.n if r_max is None else min(r_max, g.n)
    dist = [bfs_distances(g, v) for v in range(g.n)]
    for r in range(limit + 1):
        f_r, d_r = spec.f.eval(r, g.n), spec.d.eval(r, g.n)
        if f_r is None or d_r is None:
            continue
        for v in range(g.n):
            offenders = [u for u, du in dist[v].items() if du <= r and g.degree(u) > d_r]
            if len(offenders) > f_r:
                return (r, v, tuple(sorted(offenders)))
    return None


def locally_near_covered_check(
    g: Graph,
    kf: ParamFunction,
    mf: ParamFunction,
    r_max: int,
    exact: bool = True,
    cap_nodes: int = 2_000_000,
) -> Optional[tuple[int, int, tuple[int, ...]]]:
    """Check near-coverage of every radius-r ball for r <= r_max.

    Returns None when every ball passes, else (r, ball center, offending
    vertices in g's ids) for the first ball that fails.  Radii where k(r)
    or m(r) overflows the budget n are trivially satisfied.  Near-twin
    differences are computed inside the induced ball subgraph, not the
    host graph.
    """
    n = g.n
    for r in range(r_max + 1):
        k_r = kf.eval(r, n)
        m_r = mf.eval(r, n)
        if k_r is None or m_r is None or m_r >= n:
            continue
        for v in range(n):
            ball = closed_ball(g, v, r)
            sub, remap = induced(g, ball)
            cert = near_covered_check(sub, k_r, m_r, exact=exact, cap_nodes=cap_nodes)
            if cert is not None:
                back = {i: orig for orig, i in remap.items()}
                return r, v, tuple(sorted(back[i] for i in cert))
    return None


def light_parts(g: Graph, partition: PartPartition, h: int) -> frozenset[int]:
    """Parts containing a vertex of degree at most h (analysis aid)."""
    out = set()
    for i, part in enumerate(partition.parts):
        if any(g.degree(v) <= h for v in part):
            out.add(i)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Independent ranking oracle: the declarative fixed point, with the
# separator question answered by plain subset enumeration.


def _ball(g: Graph, v: int, r: int, removed: set[int]) -> set[int]:
    seen = {v}
    frontier = [v]
    for _ in range(r):
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if w not in seen and w not in removed:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def rank_oracle(g: Graph, r: int, m: int) -> tuple[float, ...]:
    ranks: dict[int, float] = {v: INF for v in range(g.n)}
    k = 0
    while any(x == INF for x in ranks.values()):
        k += 1
        newly = []
        for v in range(g.n):
            if ranks[v] != INF:
                continue
            others = [u for u in range(g.n) if u != v]
            if _separable(g, v, r, m, others, ranks, k):
                newly.append(v)
        if not newly:
            break
        for v in newly:
            ranks[v] = k
    return tuple(ranks[v] for v in range(g.n))


def _separable(g, v, r, m, others, ranks, k) -> bool:
    for size in range(m + 1):
        for s in combinations(others, size):
            ball = _ball(g, v, r, set(s))
            if all(ranks[u] < k for u in ball if u != v):
                return True
    return False


def separator_search_unpruned(
    g: Graph, v: int, targets: frozenset[int], r: int, m: int
) -> Optional[frozenset[int]]:
    """The separator search without the library's pruning: no forced
    first ring and no disjoint-path refusal, only branching on each
    shortest path.  It walks the whole search tree in branch order, so
    the pruned search must return the same first witness."""
    return _sep_search_unpruned(g, v, targets, r, m, set())


def _sep_search_unpruned(
    g: Graph,
    v: int,
    targets: frozenset[int],
    r: int,
    budget: int,
    deleted: set[int],
) -> Optional[frozenset[int]]:
    path = shortest_path(g, v, targets, r, deleted)
    if path is None:
        return frozenset(deleted)
    if budget == 0:
        return None
    for u in path[1:]:
        deleted.add(u)
        res = _sep_search_unpruned(g, v, targets, r, budget - 1, deleted)
        if res is not None:
            return res
        deleted.remove(u)
    return None


def ranking_full_rescan(g: Graph, r: int, m: int) -> RankAssignment:
    """Reference ranking that re-checks every unranked vertex each round.

    Every check runs separator_search_unpruned on its own copy of the
    target set, so it shares neither the round's unranked set, nor the
    semi-naive restriction, nor the search's pruning with
    compute_ranking.  Equal witnesses show the pruning keeps branch order.
    """
    ranks: list[float] = [INF] * g.n
    witnesses: dict[int, frozenset[int]] = {}
    unranked = set(range(g.n))
    round_no = 0
    while unranked:
        round_no += 1
        assigned = []
        for v in sorted(unranked):
            s = separator_search_unpruned(g, v, frozenset(unranked - {v}), r, m)
            if s is not None:
                assigned.append((v, s))
        if not assigned:
            break
        for v, s in assigned:
            ranks[v] = round_no
            witnesses[v] = s
            unranked.discard(v)
    return RankAssignment(r, m, tuple(ranks), witnesses)


# ---------------------------------------------------------------------------
# Brute-force ranking oracles: subset enumeration, exhaustive path
# packing, and the strong coloring number by DP over vertex subsets.


def separator_search_bruteforce(
    g: Graph,
    v: int,
    a: Iterable[int],
    r: int,
    m: int,
    cap_n: int = 12,
    cap_m: int = 4,
) -> Optional[frozenset[int]]:
    """Decide the same question as separator_search by subset enumeration.

    Tries all S with |S| <= m in (size, lexicographic) order; intended as
    a desk-scale oracle, so instances beyond the caps are rejected.
    """
    fa = frozenset(a)
    if v in fa:
        raise ValueError("separator target set must not contain the center")
    if g.n > cap_n or m > cap_m:
        raise ScaleExceeded("separator_search_bruteforce", f"n={g.n}, m={m}")
    others = [u for u in range(g.n) if u != v]
    for size in range(m + 1):
        for combo in combinations(others, size):
            s = frozenset(combo)
            if not (within_distance(g, v, r, s) & fa):
                return s
    return None


def backconnectivity(
    g: Graph,
    order: Sequence[int],
    v: int,
    r: int,
    cap_n: int = 14,
    cap_r: int = 3,
) -> int:
    """Exact maximum packing of short paths from v to later vertices.

    Counts the largest set of paths of length 1..r from v, each ending at
    a vertex after v in `order`, pairwise vertex-disjoint except at v.
    Solved by exhaustive packing search, hence the desk-scale caps.
    """
    if g.n > cap_n or r > cap_r:
        raise ScaleExceeded("backconnectivity", f"n={g.n}, r={r}")
    pos = {u: i for i, u in enumerate(order)}
    if len(pos) != g.n:
        raise ValueError("order must list every vertex exactly once")
    targets = {u for u in range(g.n) if pos[u] > pos[v]}
    path_sets: set[frozenset[int]] = set()

    def grow(last: int, used: tuple[int, ...]) -> None:
        # len(used) counts edges walked so far; stop once r are used.
        if len(used) == r:
            return
        for w in g.sorted_neighbors(last):
            if w == v or w in used:
                continue
            if w in targets:
                path_sets.add(frozenset(used + (w,)))
            grow(w, used + (w,))

    grow(v, ())
    sets = sorted(path_sets, key=lambda s: (len(s), sorted(s)))
    best = 0

    def pack(i: int, used: frozenset[int], count: int) -> None:
        nonlocal best
        best = max(best, count)
        if count + (len(sets) - i) <= best:
            return
        for j in range(i, len(sets)):
            if not (sets[j] & used):
                pack(j + 1, used | sets[j], count + 1)

    pack(0, frozenset(), 0)
    return best


def scol_bruteforce(g: Graph, r: int, cap_n: int = 9) -> int:
    """Exact strong r-coloring number, minimized over all vertex orders.

    A vertex counts itself (the length-0 path).  The count of strongly
    reachable vertices from v depends only on the set placed before v,
    so the optimum is computed by DP over prefix subsets; this equals
    the minimum over all n! orders (cross-checked in the test suite).
    """
    if g.n > cap_n:
        raise ScaleExceeded("scol_bruteforce", f"n={g.n}")
    if g.n == 0:
        return 0
    full = (1 << g.n) - 1
    dp = [math.inf] * (full + 1)
    dp[0] = 0.0
    for mask in range(full + 1):
        if dp[mask] == math.inf:
            continue
        for v in range(g.n):
            bit = 1 << v
            if mask & bit:
                continue
            cost = max(dp[mask], _strong_reach_count(g, v, mask, r))
            nxt = mask | bit
            if cost < dp[nxt]:
                dp[nxt] = cost
    return int(dp[full])


def _strong_reach_count(g: Graph, v: int, before_mask: int, r: int) -> int:
    # Endpoints are vertices not placed before v (v itself included);
    # interior vertices of the connecting path must be before v.
    count = 1
    seen = {v}
    frontier = [v]
    for _ in range(r):
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if w in seen:
                    continue
                seen.add(w)
                if before_mask & (1 << w):
                    nxt.append(w)
                else:
                    count += 1
        frontier = nxt
    return count


def scol_by_permutations(g: Graph, r: int, cap_n: int = 6) -> int:
    """Reference strong r-coloring number by trying every vertex order.

    Exists to cross-check scol_bruteforce's subset DP on tiny graphs.
    """
    if g.n > cap_n:
        raise ScaleExceeded("scol_by_permutations", f"n={g.n}")
    if g.n == 0:
        return 0
    best = g.n
    for perm in permutations(range(g.n)):
        mask = 0
        worst = 0
        for v in perm:
            worst = max(worst, _strong_reach_count(g, v, mask, r))
            if worst >= best:
                break
            mask |= 1 << v
        best = min(best, worst)
    return best


# ---------------------------------------------------------------------------
# Reference recovery: decide every kept pair on its own.


def recover_graph_pairwise(g: Graph) -> tuple[Graph, dict[int, int]]:
    """recover_graph by one complement test per pair of kept vertices.

    Same validation order and messages as the library; O(n^2) pairs.
    """
    r_set = g.predicates.get("R", frozenset())
    f_set = g.predicates.get("F", frozenset())
    if not f_set <= r_set:
        raise RecoverError("F marks escape the R marks")
    keep = [v for v in range(g.n) if v not in r_set]
    mark = {}
    for v in keep:
        marked = g.adj[v] & r_set
        if len(marked) > 1:
            raise RecoverError(f"vertex {v} has {len(marked)} marked neighbors")
        mark[v] = next(iter(marked)) if marked else None
    remap = {v: i for i, v in enumerate(keep)}
    edges = []
    for idx, x in enumerate(keep):
        mx = mark[x]
        for y in keep[idx + 1 :]:
            my = mark[y]
            if mx is not None and my is not None:
                if mx == my:
                    complement = mx in f_set
                else:
                    complement = my in g.adj[mx]
            else:
                complement = False
            if (y in g.adj[x]) != complement:
                edges.append((remap[x], remap[y]))
    preds = {
        name: [remap[v] for v in vs if v in remap]
        for name, vs in g.predicates.items()
        if name not in ("R", "F")
    }
    return make_graph(len(keep), edges, preds), remap


# ---------------------------------------------------------------------------
# Sparsifier oracles: the construction's invariants and the
# sparse/dense dichotomy of near-twin block pairs, checked directly.


def validate_sparsified(sg: SparsifiedGraph) -> None:
    """Check the construction invariants; raises ValueError on violation."""
    g = sg.graph
    r_set = g.predicates.get("R", frozenset())
    f_set = g.predicates.get("F", frozenset())
    if r_set != frozenset(sg.apex.values()):
        raise ValueError("R marks disagree with the apex record")
    if not f_set <= r_set:
        raise ValueError("F marks escape the R marks")
    apex_partner: dict[int, set[int]] = {a: set() for a in sg.apex.values()}
    for i, j in sg.flipped_pairs:
        if i != j:
            apex_partner[sg.apex[i]].add(sg.apex[j])
            apex_partner[sg.apex[j]].add(sg.apex[i])
    for i, a_vertex in sg.apex.items():
        expected = set(sg.partition.parts[i]) | apex_partner[a_vertex]
        if set(g.adj[a_vertex]) != expected:
            raise ValueError(f"apex {a_vertex} adjacency disagrees with part {i}")
    self_flipped = frozenset(sg.apex[i] for i, j in sg.flipped_pairs if i == j)
    if f_set != self_flipped:
        raise ValueError("F marks disagree with the self-flipped parts")
    for v in range(sg.graph.n - len(sg.apex)):
        if len(g.adj[v] & r_set) > 1:
            raise ValueError(f"original vertex {v} has multiple marked neighbors")


@dataclass(frozen=True)
class PairDensityReport:
    verdict: str  # "sparse" | "dense" | "mixed"
    preconditions_ok: bool
    notes: tuple[str, ...] = ()


def pair_density(g: Graph, a: Iterable[int], b: Iterable[int], k: int) -> PairDensityReport:
    """Classify the cross adjacency of two near-twin blocks.

    Sparse: every vertex sees at most 2k of the other side; dense: every
    vertex misses at most 2k of the other side; mixed otherwise.  The
    dichotomy hypotheses (sizes >= 5k+1, pairwise k-near-twins inside
    each block) are checked and reported, never assumed.
    """
    fa, fb = sorted(frozenset(a)), sorted(frozenset(b))
    notes = []
    pre_ok = True
    if len(fa) < 5 * k + 1 or len(fb) < 5 * k + 1:
        pre_ok = False
        notes.append(f"sizes ({len(fa)},{len(fb)}) below {5 * k + 1}")
    for name, block in (("A", fa), ("B", fb)):
        bad = next(
            (
                (u, v)
                for u, v in combinations(block, 2)
                if symdiff(g, u, v) > k
            ),
            None,
        )
        if bad is not None:
            pre_ok = False
            notes.append(f"pair {bad} in {name} is not {k}-near-twin")
    sb, sa = frozenset(fb), frozenset(fa)
    sparse = all(len(g.adj[u] & sb) <= 2 * k for u in fa) and all(
        len(g.adj[v] & sa) <= 2 * k for v in fb
    )
    dense = all(len(sb - g.adj[u] - {u}) <= 2 * k for u in fa) and all(
        len(sa - g.adj[v] - {v}) <= 2 * k for v in fb
    )
    if sparse and not dense:
        verdict = "sparse"
    elif dense and not sparse:
        verdict = "dense"
    elif sparse and dense:
        verdict = "sparse"  # tiny blocks can satisfy both; sparse wins
    else:
        verdict = "mixed"
    return PairDensityReport(verdict, pre_ok, tuple(notes))


# ---------------------------------------------------------------------------
# Independent formula evaluation by relational algebra over assignment
# tuples (satisfying-set semantics), for cross-checking the recursive
# evaluator on tiny graphs.

from treerank import fo  # noqa: E402


def eval_reference(g: Graph, f: fo.Formula, assignment: dict[str, int]) -> bool:
    return reference_truth(g, f)(assignment)


def reference_truth(g: Graph, f: fo.Formula):
    """assignment -> truth of f in g, read off one table of f's
    satisfying assignments, so many assignments cost one table."""
    rel, vs = satisfying_assignments(g, f)
    return lambda assignment: tuple(assignment[v] for v in vs) in rel


def _either_order(g: Graph, psi: fo.Formula):
    holds = reference_truth(g, psi)
    return lambda u, v: holds({"x": u, "y": v}) or holds({"x": v, "y": u})


def apply_interpretation_pairwise(g: Graph, interp: fo.Interpretation) -> tuple[Graph, dict[int, int]]:
    """fo.apply_interpretation by the pair scan: delta tested on every
    vertex and psi on every pair of kept vertices, in both orders."""
    delta = reference_truth(g, interp.delta)
    kept = [v for v in range(g.n) if delta({"x": v})]
    holds = _either_order(g, interp.psi)
    # Built here with make_graph, not with the library's relabel, so the
    # oracle shares no code with the routine it checks.
    remap = {v: i for i, v in enumerate(kept)}
    edges = [(remap[u], remap[v]) for u, v in combinations(kept, 2) if holds(u, v)]
    preds = {name: [remap[v] for v in vs if v in remap] for name, vs in g.predicates.items()}
    return make_graph(len(kept), edges, preds), remap


def check_range_pairwise(g: Graph, psi: fo.Formula, b: int) -> bool:
    """fo.check_range by the pair scan: psi tested, in both orders, on
    every pair outside the radius-b ball of its smaller vertex."""
    if b < 0:
        raise ValueError("range bound must be nonnegative")
    holds = _either_order(g, psi)
    for u in range(g.n):
        near = within_distance(g, u, b)
        for v in range(u + 1, g.n):
            if v not in near and holds(u, v):
                return False
    return True


def satisfying_assignments(g: Graph, f: fo.Formula) -> tuple[set[tuple[int, ...]], tuple[str, ...]]:
    """The assignments of f's free variables (in the returned order)
    that satisfy f in g."""
    dom = range(g.n)
    if isinstance(f, fo.Edge):
        if f.x == f.y:
            return set(), (f.x,)
        vs = tuple(sorted((f.x, f.y)))
        rel = {
            ((a, b) if vs[0] == f.x else (b, a))
            for a in dom
            for b in g.adj[a]
        }
        return rel, vs
    if isinstance(f, fo.Eq):
        if f.x == f.y:
            return {(a,) for a in dom}, (f.x,)
        vs = tuple(sorted((f.x, f.y)))
        return {(a, a) for a in dom}, vs
    if isinstance(f, fo.Pred):
        marked = g.predicates.get(f.name, frozenset())
        return {(a,) for a in marked}, (f.x,)
    if isinstance(f, fo.Const):
        return ({()} if f.value else set()), ()
    if isinstance(f, fo.Not):
        rel, vs = satisfying_assignments(g, f.f)
        full = set(product(dom, repeat=len(vs)))
        return full - rel, vs
    if isinstance(f, (fo.And, fo.Or)):
        rels = [satisfying_assignments(g, p) for p in f.parts]
        all_vs = tuple(sorted(set(v for _, vs in rels for v in vs)))
        expanded = [_expand(g, rel, vs, all_vs) for rel, vs in rels]
        out = expanded[0]
        for e in expanded[1:]:
            out = out & e if isinstance(f, fo.And) else out | e
        return out, all_vs
    if isinstance(f, (fo.Exists, fo.Forall)):
        rel, vs = satisfying_assignments(g, f.f)
        if f.var not in vs:
            if isinstance(f, fo.Exists):
                return (rel if g.n > 0 else set()), vs
            if g.n == 0:
                return set(product(dom, repeat=len(vs))), vs
            return rel, vs
        i = vs.index(f.var)
        rest = vs[:i] + vs[i + 1 :]
        if g.n == 0 and isinstance(f, fo.Forall):  # vacuous, and no tuple to group
            return set(product(dom, repeat=len(rest))), rest
        groups: dict[tuple[int, ...], set[int]] = {}
        for t in rel:
            groups.setdefault(t[:i] + t[i + 1 :], set()).add(t[i])
        if isinstance(f, fo.Exists):
            return set(groups), rest
        full_dom = set(dom)
        return {t for t, vals in groups.items() if vals == full_dom}, rest
    raise TypeError(f)


def _expand(g, rel, vs, target_vs):
    extra = [v for v in target_vs if v not in vs]
    idx = {v: i for i, v in enumerate(vs)}
    out = set()
    for t in rel:
        for ext in product(range(g.n), repeat=len(extra)):
            env = dict(zip(extra, ext))
            env.update({v: t[idx[v]] for v in vs})
            out.add(tuple(env[v] for v in target_vs))
    return out


def check_range_by_table(g: Graph, psi: fo.Formula, b: int) -> bool:
    """check_range read off a table of all-pairs BFS distances, with psi
    evaluated on each far pair in both orders through fo.evaluate."""
    if b < 0:
        raise ValueError("range bound must be nonnegative")
    dist = [bfs_distances(g, v) for v in range(g.n)]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if dist[u].get(v, b + 1) <= b:
                continue
            if fo.evaluate(g, psi, {"x": u, "y": v}) or fo.evaluate(g, psi, {"x": v, "y": u}):
                return False
    return True


def random_formula(rng: random.Random, depth: int, variables=("x", "y", "z"), fresh=()) -> fo.Formula:
    """A random formula whose atoms use `variables`.

    With `fresh` names given, a quantifier binds one of variables or
    fresh, its body may use that variable too, and half the existentials
    are guarded: their body leads with a predicate on the variable (or
    "M", which no graph has) or an edge between it and another variable.
    """
    atoms = [
        lambda: fo.Edge(rng.choice(variables), rng.choice(variables)),
        lambda: fo.Eq(rng.choice(variables), rng.choice(variables)),
        lambda: fo.Pred(rng.choice(("R", "B")), rng.choice(variables)),
        lambda: fo.Const(True),
        lambda: fo.Const(False),
    ]
    if depth == 0:
        return rng.choice(atoms)()
    kind = rng.randrange(5)
    if kind == 0:
        return fo.Not(random_formula(rng, depth - 1, variables, fresh))
    if kind == 1:
        return fo.And(
            tuple(random_formula(rng, depth - 1, variables, fresh) for _ in range(rng.randint(2, 3)))
        )
    if kind == 2:
        return fo.Or(
            tuple(random_formula(rng, depth - 1, variables, fresh) for _ in range(rng.randint(2, 3)))
        )
    quantifier = fo.Exists if kind == 3 else fo.Forall
    if not fresh:
        return quantifier(rng.choice(variables), random_formula(rng, depth - 1, variables))
    var = rng.choice(variables + fresh)
    inner = variables if var in variables else variables + (var,)
    body = random_formula(rng, depth - 1, inner, fresh)
    if quantifier is fo.Exists and rng.random() < 0.5:
        other = rng.choice(inner)
        guard = rng.choice([fo.Pred(rng.choice(("R", "B", "M")), var), fo.Edge(var, other),
                            fo.Edge(other, var)])
        body = fo.And((guard, body))
    return quantifier(var, body)


def guarded_formula(rng: random.Random, depth: int, variables=("x", "y", "z")) -> fo.Formula:
    """An existential over a conjunction that leads with guard-shaped atoms.

    Usable guards are a predicate on the quantified variable (including
    "M", which no graph has) and an edge to another variable.  The
    atoms that are not guards sit before them: a predicate or an edge on
    other variables, an edge from the variable to itself, an equality.
    The last conjunct is a nested formula, which may quantify again a
    variable an outer quantifier binds.
    """
    var = rng.choice(variables)
    other, third = rng.sample([v for v in variables if v != var], 2)
    guards = [
        lambda: fo.Pred(rng.choice(("R", "B", "M")), var),
        lambda: fo.Edge(var, other),
        lambda: fo.Edge(other, var),
    ]
    others = [
        lambda: fo.Pred(rng.choice(("R", "B")), other),
        lambda: fo.Edge(other, third),
        lambda: fo.Edge(var, var),
        lambda: fo.Eq(var, other),
    ]
    parts = [rng.choice(others)() for _ in range(rng.randint(0, 1))]
    parts.append(rng.choice(guards if rng.random() < 0.8 else others)())
    if depth > 0 and rng.random() < 0.6:
        parts.append(guarded_formula(rng, depth - 1, variables))
    else:
        parts.append(random_formula(rng, max(depth - 1, 0), variables))
    f = fo.Exists(var, fo.And(tuple(parts)))
    return fo.Not(f) if rng.random() < 0.3 else f
