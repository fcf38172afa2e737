"""Round-based vertex ranking with an FPT separator subroutine.

The ranking works in batched rounds: round i examines still unranked
vertices v and asks whether deleting at most m vertices (other than v)
removes every unranked vertex from v's radius-r ball.  If yes, v
receives rank i. All round-i checks read the one unranked set frozen at
the end of round i-1, so the output is independent of intra-round order.
Vertices never separable keep rank infinity.

Round 1 checks every vertex; round i+1 re-checks only the unranked
vertices within distance r of a vertex ranked in round i.  A check's
answer depends only on the unranked vertices inside ball_r(v), so every
other vertex would fail again exactly as it did before (semi-naive
evaluation of the fixed point).

The per-vertex check is a branch-and-bound search: find a shortest path
from v to the forbidden set; if none, the empty remainder suffices; else
some path vertex must be deleted, giving branching <= r and depth <= m
(so at most sum(r^i, i<=m) expansions per search).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import AbstractSet, Iterable, Mapping, Optional, Sequence

from .errors import ScaleExceeded
from .graph import Graph, shortest_path, within_distance

INF = math.inf

Rank = float  # positive int, or math.inf


@dataclass
class SearchStats:
    """Instrumentation for separator searches (node = one recursive call)."""

    searches: int = 0
    nodes: int = 0
    max_nodes_per_search: int = 0

    def record(self, nodes: int) -> None:
        self.searches += 1
        self.nodes += nodes
        self.max_nodes_per_search = max(self.max_nodes_per_search, nodes)


@dataclass(frozen=True)
class RankAssignment:
    """Per-vertex ranks plus the separator witnesses found on assignment."""

    r: int
    m: int
    ranks: tuple[Rank, ...]
    witnesses: Mapping[int, frozenset[int]] = field(default_factory=dict)

    def rank_of(self, v: int) -> Rank:
        return self.ranks[v]

    def all_finite(self) -> bool:
        return all(x != INF for x in self.ranks)

    def max_rank(self) -> Rank:
        return max(self.ranks, default=0)


def separator_search(
    g: Graph,
    v: int,
    a: Iterable[int],
    r: int,
    m: int,
    stats: Optional[SearchStats] = None,
) -> Optional[frozenset[int]]:
    """Find S (|S| <= m, v not in S) with ball_r(v) in G-S avoiding A.

    Returns the first S found by branch order (path vertices nearest v
    first), or None if no such set exists.  Branching follows the
    shortest-path structure, so the search tree has at most
    sum(r^i for i <= m) nodes.
    """
    fa = frozenset(a)
    if v in fa:
        raise ValueError("separator target set must not contain the center")
    if r < 1 or m < 0:
        raise ValueError("need r >= 1 and m >= 0")
    return _separator(g, v, fa, r, m, stats)


def _separator(
    g: Graph,
    v: int,
    targets: AbstractSet[int],
    r: int,
    m: int,
    stats: Optional[SearchStats],
) -> Optional[frozenset[int]]:
    """separator_search without validation or copying.

    targets may contain v: v is the BFS root, so it is never reached as
    a target.  That lets every search of a ranking round share one set.
    """
    deleted: set[int] = set()
    counter = [0]
    found = _sep_search(g, v, targets, r, m, deleted, counter)
    if stats is not None:
        stats.record(counter[0])
    return found


def _sep_search(
    g: Graph,
    v: int,
    targets: AbstractSet[int],
    r: int,
    budget: int,
    deleted: set[int],
    counter: list[int],
) -> Optional[frozenset[int]]:
    counter[0] += 1
    path = shortest_path(g, v, targets, r, deleted)
    if path is None:
        return frozenset(deleted)
    if budget == 0:
        return None
    for u in path[1:]:
        deleted.add(u)
        res = _sep_search(g, v, targets, r, budget - 1, deleted, counter)
        if res is not None:
            return res
        deleted.remove(u)
    return None


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
            if not (within_distance(g, [v], r, s) & fa):
                return s
    return None


def compute_ranking(
    g: Graph,
    r: int,
    m: int,
    stats: Optional[SearchStats] = None,
) -> RankAssignment:
    """Run the batched ranking rounds until no vertex gains a rank.

    For r >= 1 a vertex has rank 1 iff its degree is at most m.  When a
    rank is assigned, the separator found is stored as an audit witness
    (the witness is branch-order dependent, the rank value is not).
    """
    if r < 1 or m < 0:
        raise ValueError("need r >= 1 and m >= 0")
    ranks: list[Rank] = [INF] * g.n
    witnesses: dict[int, frozenset[int]] = {}
    unranked = set(range(g.n))
    dirty: Iterable[int] = range(g.n)
    round_no = 0
    while unranked:
        round_no += 1
        assigned: list[tuple[int, frozenset[int]]] = []
        for v in dirty:
            s = _separator(g, v, unranked, r, m, stats)
            if s is not None:
                assigned.append((v, s))
        if not assigned:
            break
        for v, s in assigned:
            ranks[v] = round_no
            witnesses[v] = s
            unranked.discard(v)
        dirty = sorted(within_distance(g, [v for v, _ in assigned], r) & unranked)
    return RankAssignment(r, m, tuple(ranks), witnesses)


def rank_order(ra: RankAssignment) -> tuple[int, ...]:
    """Vertices sorted by rank, ties by id.  Requires all ranks finite."""
    if not ra.all_finite():
        bad = [v for v, x in enumerate(ra.ranks) if x == INF]
        raise ValueError(f"rank order undefined: infinite rank at {bad[:5]}")
    return tuple(sorted(range(len(ra.ranks)), key=lambda v: (ra.ranks[v], v)))


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
