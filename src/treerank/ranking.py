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
from v to the forbidden set; if none, the deletions so far suffice; else
some path vertex must be deleted, giving branching <= r and depth <= m
(so at most sum(r^i, i<=m) expansions per search, still the worst case).
Two prunings remove only subtrees that hold no solution, so the first
solution in branch order, the witness, is the one the plain search finds:

- Forced first ring: a forbidden neighbour of v is a one-edge path that
  only its own deletion breaks, so every solution deletes all of them.
  The search starts with them deleted, or fails at once if there are
  more than m.  Deleting vertices never brings a new one to distance 1,
  so this applies only at the root.
- Disjoint-path refusal: at a node with budget b, up to b more shortest
  paths are grown with the earlier paths' vertices blocked.  If b+1
  paths share no vertex besides v, any b deletions miss one of them, and
  the node fails without branching.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Iterable, Mapping, Optional

from .graph import Graph, check_vertices, field, record, shortest_path, within_distance

INF = math.inf

Rank = float  # positive int, or math.inf


@record(frozen=False)
class SearchStats:
    """Instrumentation for separator searches (node = one search tree node)."""

    searches: int = 0
    nodes: int = 0
    max_nodes_per_search: int = 0

    def record(self, nodes: int) -> None:
        self.searches += 1
        self.nodes += nodes
        self.max_nodes_per_search = max(self.max_nodes_per_search, nodes)


@record
class RankAssignment:
    """Per-vertex ranks plus the separator witnesses found on assignment."""

    r: int
    m: int
    ranks: tuple[Rank, ...]
    witnesses: Mapping[int, frozenset[int]] = field(default_factory=dict)

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
    check_vertices(g, [v])
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
    The search starts with the forced first ring deleted.
    """
    deleted = set(g.adj[v] & targets)
    budget = m - len(deleted)
    # One frame per open node: its path vertices not yet given up, in
    # reverse, so frame[-1] is the vertex its current branch deletes.
    frames: list[list[int]] = []
    nodes = 1  # the root; a ring of more than m refuses it at once
    found = None
    while budget >= 0:
        path = shortest_path(g, v, targets, r, deleted)
        if path is None:
            found = frozenset(deleted)
            break
        if not _refuted(g, v, targets, r, budget - len(frames), deleted, path):
            frames.append(path[:0:-1])
        else:  # the node fails: move on to the next untried branch
            while frames:
                deleted.remove(frames[-1].pop())
                if frames[-1]:
                    break
                frames.pop()
            else:
                break
        deleted.add(frames[-1][-1])
        nodes += 1
    if stats is not None:
        stats.record(nodes)
    return found


def _refuted(
    g: Graph,
    v: int,
    targets: AbstractSet[int],
    r: int,
    budget: int,
    deleted: set[int],
    path: list[int],
) -> bool:
    """Disjoint-path refusal: budget + 1 paths sharing only v, path
    first, cannot all be cut by budget deletions."""
    if budget == 0:
        return True
    blocked = deleted.union(path[1:])
    for _ in range(budget):
        other = shortest_path(g, v, targets, r, blocked)
        if other is None:
            return False
        blocked.update(other[1:])
    return True


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
